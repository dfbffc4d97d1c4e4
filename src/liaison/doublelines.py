"""Pairs of double lines in P^3: normal forms, the local-linkage
classification by explicit conditions, and an independent geometric oracle.

A double line is a multiplicity-two structure on a coordinate line, with
ideal (f*v1 + g*v2, v1^2, v1*v2, v2^2) for a pair of coprime binary forms
(f, g) in the two complementary variables.  Two double lines are locally
algebraically linked (l.a.l.) when some locally complete intersection
multiplicity-4 curve links them; the classifier decides this from the form
data.  The oracle re-decides it without the classifier's conditions and
without sampling: for meeting or disjoint supports by an exact certificate
that each line is a local complete intersection along its support, plus
one local complete-intersection test of the union at the meeting point;
for equal supports by an exact linear search over the complete
intersections of two quadrics in the support variables.

Condition used in the meeting case with both tangency values zero: the
union is locally a complete intersection at the meeting point iff
c(0:1) * db/dz(0:1) = a(0:1) * dd/dy(0:1) (the proportionality of the two
initial generators; cross form).  This is pinned by the oracle on the
generated meeting campaigns.
"""

import itertools
from dataclasses import dataclass, field as dc_field

from .ideals import Ideal, hilbert_data, ideal_equal, ideal_intersect
from .linalg import kernel_basis, solve
from .localrings import LocalPointReport, RationalPoint, local_mu, translate_to_origin
from .polynomials import Polynomial, binary_coefficients, binary_form, binary_forms_have_common_zero
from .reports import Report


class ClassificationDiscrepancy(RuntimeError):
    """Condition-based verdict and geometric oracle disagree (build-failing)."""


@dataclass(frozen=True)
class DoubleLine:
    """A double structure on the coordinate line {v1 = v2 = 0}.

    support holds the indices of (v1, v2); forms = (f, g) are the binary
    forms in the complementary variables, attached to v1 and v2 in that
    order, so the non-quadric generator is f*v1 + g*v2.
    """

    ring: object
    support: tuple
    forms: tuple

    def __post_init__(self):
        ring = self.ring
        if ring.nvars != 4:
            raise ValueError("double lines live in a 4-variable ring (P^3)")
        if len(self.support) != 2 or len(set(self.support)) != 2:
            raise ValueError("support must be two distinct variable indices")
        f, g = self.forms
        if f.ring != ring or g.ring != ring:
            raise ValueError("forms from a different ring context")
        pencil = self.pencil
        for form in (f, g):
            for e in form.terms:
                if any(e[k] > 0 for k in self.support):
                    raise ValueError("forms must involve only the pencil variables")
            if not form.is_homogeneous():
                raise ValueError("forms must be homogeneous")
        if f.is_zero() and g.is_zero():
            raise ValueError("both forms vanish")
        if not f.is_zero() and not g.is_zero() and f.total_degree() != g.total_degree():
            raise ValueError("forms must have equal degree")
        if binary_forms_have_common_zero(f, g, pencil):
            raise ValueError("forms share a zero on the support line (resultant 0)")

    @property
    def degree(self):
        """Degree of the forms (the larger one, since one form may be zero)."""
        return max(form.total_degree() for form in self.forms)

    @property
    def pencil(self):
        return tuple(k for k in range(4) if k not in self.support)

    def scaled(self, c):
        return DoubleLine(self.ring, self.support, (self.forms[0].scale(c), self.forms[1].scale(c)))


def double_line_ideal(line):
    """(f*v1 + g*v2, v1^2, v1*v2, v2^2) in the ambient ring."""
    ring = line.ring
    v1 = Polynomial.variable(ring, ring.variables[line.support[0]])
    v2 = Polynomial.variable(ring, ring.variables[line.support[1]])
    f, g = line.forms
    return Ideal(ring, [f * v1 + g * v2, v1 * v1, v1 * v2, v2 * v2])


def support_relation(L1, L2):
    s1, s2 = set(L1.support), set(L2.support)
    common = s1 & s2
    if len(common) == 2:
        return "equal"
    if len(common) == 1:
        return "meeting"
    return "disjoint"


@dataclass
class ClassificationVerdict(Report):
    lal: bool
    case_tag: str
    witness: dict | None = None
    mode: str = "conditions"
    oracle_verdict: str | None = None
    point_reports: list = dc_field(default_factory=list, metadata={"json": "points_tested"})


def _oriented_forms(line, shared):
    """(a, b) with a attached to the shared support variable."""
    if line.support[0] == shared:
        return line.forms
    return (line.forms[1], line.forms[0])


def _meeting_geometry(L1, L2):
    shared = (set(L1.support) & set(L2.support)).pop()
    free = (set(range(4)) - set(L1.support) - set(L2.support)).pop()
    other1 = next(k for k in L1.support if k != shared)
    other2 = next(k for k in L2.support if k != shared)
    return shared, other1, other2, free


def classify_meeting_pair(L1, L2):
    """Conditions-based classification when the supports meet in a point.

    Orients each line so a_i multiplies the shared variable and b_i the
    other support variable; b_1 is evaluated where the partner's support
    crosses (the meeting point of the pencils), likewise b_2.  Both values
    nonzero: linked.  Both zero: linked iff the tangent-coefficient identity
    c * db/dz = a * dd/dy holds at the point.  Exactly one zero: not linked.
    """
    if support_relation(L1, L2) != "meeting":
        raise ValueError("classify_meeting_pair needs supports meeting in one point")
    field = L1.ring.field
    shared, other1, other2, free = _meeting_geometry(L1, L2)
    a1, b1 = _oriented_forms(L1, shared)
    a2, b2 = _oriented_forms(L2, shared)

    def value_and_tangent(form, line, partner):
        # in the pencil (partner's support variable, free variable) the
        # meeting point is (0:1): the value is c_0, the tangent coefficient c_1
        coeffs = binary_coefficients(form, (partner, free), line.degree) + [field.zero]
        return coeffs[0], coeffs[1]

    b1_at, db1 = value_and_tangent(b1, L1, other2)
    b2_at, db2 = value_and_tangent(b2, L2, other1)
    if b1_at != field.zero and b2_at != field.zero:
        return ClassificationVerdict(True, "meeting_a", witness={"b1": str(b1_at), "b2": str(b2_at)})
    if b1_at == field.zero and b2_at == field.zero:
        a1_at, _ = value_and_tangent(a1, L1, other2)
        a2_at, _ = value_and_tangent(a2, L2, other1)
        lhs = field.mul(a2_at, db1)
        rhs = field.mul(a1_at, db2)
        if lhs == rhs:
            lam = field.div(a1_at, a2_at)
            return ClassificationVerdict(True, "meeting_b", witness={"lambda": str(lam)})
        return ClassificationVerdict(
            False,
            "not_linked",
            witness={
                "failed": "tangent-coefficient identity",
                "a1": str(a1_at), "db1": str(db1), "a2": str(a2_at), "db2": str(db2),
            },
        )
    return ClassificationVerdict(
        False,
        "not_linked",
        witness={"failed": "one-sided tangency", "b1": str(b1_at), "b2": str(b2_at)},
    )


def _nonvanishing_member(base, kernel, quadratic, field):
    """A point of base + span(kernel) where quadratic is nonzero, or None.

    quadratic has degree <= 2 in each kernel coordinate, so a nonzero value
    exists iff one exists on the {0, 1, 2}-grid of coordinates.
    """
    samples = [field.normalize(v) for v in (0, 1, 2)]
    for values in itertools.product(samples, repeat=len(kernel)):
        vec = list(base)
        for t, kv in zip(values, kernel):
            vec = [field.add(x, field.mul(t, k)) for x, k in zip(vec, kv)]
        if quadratic(vec) != field.zero:
            return vec
    return None


def _pm_extension_ideal(ring, support, N):
    """The span of the squared eigenforms l+^2, l-^2 of a traceless N with
    nonzero determinant, as an ideal, built without the eigenforms (which
    need not be rational; the span is).

    On quadrics c0*v1^2 + c1*v1*v2 + c2*v2^2 (coordinates in the pencil
    (v2, v1)) it is the kernel of the row phi = (-n12, n11, n21).  The
    product l+*l- = n21*v1^2 - 2*n11*v1*v2 - n12*v2^2 vanishes exactly where
    N*v is parallel to v, and phi is the SL2-invariant pairing with it.
    Pairing with l^2 evaluates at the zero of l, so phi kills l+^2 and l-^2.
    phi is also the oracle's phi for this Y, with p1^2 - p0*p2 = -det N.
    """
    field = ring.field
    (n11, n12), (n21, _n22) = N
    pencil = (support[1], support[0])
    kernel = kernel_basis([[field.neg(n12), n11, n21]], 3, field)
    return Ideal(ring, [binary_form(ring, pencil, vec) for vec in kernel])


def _holds_line_product(Y, I1, I2, support):
    """Whether Y contains F1*F2 and (v1, v2)^3, for the ideals I_i =
    double_line_ideal(L_i) = (F_i) + (v1, v2)^2 of two double lines on the
    support {v1 = v2 = 0}.

    As F_i lies in (v1, v2), I1*I2 lies in (F1*F2) + (v1, v2)^3: True means
    Y contains I1*I2, at the cost of one product and five normal forms
    instead of sixteen of each.  The converse holds when Y contains
    (v1, v2)^3, as two coprime quadrics in v1, v2 do: their four multiples
    by v1 and v2 are independent cubics, so they span all four.
    """
    ring = Y.ring
    v1, v2 = (Polynomial.variable(ring, ring.variables[k]) for k in support)
    cubics = (v1**3, v1**2 * v2, v1 * v2**2, v2**3)
    return Y.contains(I1.gens[0] * I2.gens[0]) and all(Y.contains(c) for c in cubics)


def _witness_links_by_certificate(Y, L1, L2):
    """Whether Y links the double lines L1 and L2: (Y : I1) = I2 and
    (Y : I2) = I1, proved without a colon.

    Y with two generators and Krull dimension 2 is a complete intersection,
    so every colon into it is unmixed.  lci_along_support certifies that the
    pencil forms of each line have no common zero, so I_i =
    double_line_ideal(L_i) is unmixed of degree 2: (v1, v2)/I_i is the ideal
    (f, g) of the pencil ring, shifted, which is torsion-free of rank 1.
    With Y of degree 4 inside I1 and I2, and I1*I2 inside Y (checked on
    F1*F2 and (v1, v2)^3, see _holds_line_product), (Y : I1) is unmixed of
    degree 4 - 2 and contains I2, unmixed of the same degree, so the two
    are equal; likewise (Y : I2) = I1.

    For lines the DoubleLine constructor accepts and Y spanned by two
    quadrics in v1, v2 (as _pm_extension_ideal builds it), False also
    disproves the colons.  The constructor rejects forms with a common
    zero, so the lci checks hold.  If both colons hold, Y lies in (Y : I1)
    = I2 and in I1, and I1*I2 = I1*(Y : I1) lies in Y.  Y also has Krull
    dimension 2: at least that of I1, which contains it, and two quadrics
    with a common factor h have (Y : I1) inside (h), which cannot contain
    I2.  So its quadrics are coprime, Y contains (v1, v2)^3, and the
    product check is exact.
    """
    data = hilbert_data(Y)
    if not (len(Y.gens) == 2 and data.krull_dimension == 2 and data.degree == 4):
        return False
    if not (lci_along_support(L1) and lci_along_support(L2)):
        return False
    I1, I2 = double_line_ideal(L1), double_line_ideal(L2)
    return (
        I1.contains_ideal(Y)
        and I2.contains_ideal(Y)
        and _holds_line_product(Y, I1, I2, L1.support)
    )


def classify_same_support_pair(L1, L2):
    """Classification for two double structures on the same line.

    Proportional form pairs define the same double line: linked.  Otherwise
    the pair is linked iff the degrees agree and (a2, b2) = (a1, b1) * N for
    a constant traceless matrix N with nonzero determinant; the witness
    extension Y is the span of the squared eigenforms of N, in closed form
    (see _pm_extension_ideal).  Y is verified on the spot by a certificate
    for the colon identities (Y : I1) = I2 and (Y : I2) = I1, computing no
    colon (see _witness_links_by_certificate; for constructor-made lines it
    holds exactly when the identities do).  A failed verification is a hard
    error, never a silent answer.
    """
    if support_relation(L1, L2) != "equal":
        raise ValueError("classify_same_support_pair needs equal supports")
    ring = L1.ring
    field = ring.field
    shared = min(L1.support)
    a1, b1 = _oriented_forms(L1, shared)
    a2, b2 = _oriented_forms(L2, shared)
    if (a1 * b2 - a2 * b1).is_zero():
        return ClassificationVerdict(True, "same_support_equal")
    r1, r2 = L1.degree, L2.degree
    if r1 != r2:
        return ClassificationVerdict(
            False, "not_linked", witness={"failed": "form degrees differ", "r1": r1, "r2": r2}
        )
    coeffs = [binary_coefficients(form, L1.pencil, r1) for form in (a1, b1, a2, b2)]
    # unknowns (n11, n21, n12, n22); (a2, b2) = (a1, b1) * N columnwise
    rows = []
    rhs = []
    for ca1, cb1, ca2, cb2 in zip(*coeffs):
        rows.append([ca1, cb1, field.zero, field.zero])
        rhs.append(ca2)
        rows.append([field.zero, field.zero, ca1, cb1])
        rhs.append(cb2)
    rows.append([field.one, field.zero, field.zero, field.one])  # trace = 0
    rhs.append(field.zero)
    particular = solve(rows, rhs, field)
    if particular is None:
        return ClassificationVerdict(
            False, "not_linked", witness={"failed": "no traceless matrix relates the pairs"}
        )
    kernel = kernel_basis(rows, 4, field)

    def determinant(vec):
        return field.sub(field.mul(vec[0], vec[3]), field.mul(vec[1], vec[2]))

    witness_vec = _nonvanishing_member(particular, kernel, determinant, field)
    if witness_vec is None:
        # Unreachable for constructor-made lines.  Degree r >= 1: coprime a1,
        # b1 are linearly independent, so N is unique; a singular traceless
        # N is nilpotent (Cayley-Hamilton), so N = u*v^T and (a2, b2) =
        # h*(v1, v2) with h = a1*u1 + b1*u2: L2's forms share the zeros of
        # h, and the constructor refuses such a line.  Degree 0: the
        # solutions form a line N0 + t*K with K of rank 1, so det is affine
        # in t and not identically zero, and t = 0 or t = 1 works.
        raise ClassificationDiscrepancy(
            "no traceless solution has a nonzero determinant: "
            f"pair1 = ({a1}, {b1}), pair2 = ({a2}, {b2})"
        )

    N = [[witness_vec[0], witness_vec[2]], [witness_vec[1], witness_vec[3]]]
    Y = _pm_extension_ideal(ring, (shared, next(k for k in L1.support if k != shared)), N)
    if not _witness_links_by_certificate(Y, L1, L2):
        raise ClassificationDiscrepancy(
            "traceless witness found but its linkage certificate failed: "
            f"N = {N}, pair1 = ({a1}, {b1}), pair2 = ({a2}, {b2})"
        )
    return ClassificationVerdict(
        True,
        "same_support_pm",
        witness={
            "N": [[str(x) for x in row] for row in N],
            "extension": [str(g) for g in Y.groebner().elements],
        },
    )


def lci_along_support(line):
    """Whether a double line is a local complete intersection at every point
    of its support line.

    At a point where f or g does not vanish, f*v1 + g*v2 is v1 or v2 up to
    a unit and a change of coordinates, so the ideal is locally (v1', v2^2);
    where both vanish every generator lies in m*(v1, v2) + (v1, v2)^2 and
    the ideal needs four.
    So the certificate is that f and g share no zero on the support line,
    decided by binary_forms_have_common_zero, the constructor's test (no
    Groebner basis).  A zero form shares every zero of its partner, so it
    passes only beside a nonzero constant.
    """
    return not binary_forms_have_common_zero(*line.forms, line.pencil)


def oracle_lal(L1, L2):
    """Geometric oracle, decided without the classifier's conditions.

    Meeting or disjoint supports: both lines must be lci along their
    supports (lci_along_support, exact).  Away from the meeting point the
    union U = I1 cap I2 is locally a single double line, so that decides
    every point but the meeting point.  There U is lci iff its local
    minimal generator count mu is 2, its codimension; the report carries mu
    and no Gorenstein verdict.  Disjoint supports need no local test.

    Equal supports: exact, over the complete intersections Y of two
    quadrics in the support variables (v1, v2), the classifier's witness
    family.  Equal ideals are linked, as a double line is a local complete
    intersection and so locally self-linked; no such Y links a line of
    positive degree to itself.  Otherwise Y = ker(phi) on
    <v1^2, v1*v2, v2^2> with p1^2 != p0*p2, and Y contains (v1, v2)^3, so
    Y links the pair iff phi(a1*a2, a1*b2 + b1*a2, b1*b2) = 0 as a binary
    form: then (Y : I1) = I2, both being unmixed of degree 2.

    Returns (verdict, reports): 'lal' or 'not_lal', and the local tests
    (the meeting point's only; none for other relations).  Deterministic.
    """
    relation = support_relation(L1, L2)
    if relation == "equal":
        if ideal_equal(double_line_ideal(L1), double_line_ideal(L2)):
            return "lal", []
        field = L1.ring.field
        shared = min(L1.support)
        a1, b1 = _oriented_forms(L1, shared)
        a2, b2 = _oriented_forms(L2, shared)
        degree = L1.degree + L2.degree
        products = (a1 * a2, a1 * b2 + b1 * a2, b1 * b2)
        columns = [binary_coefficients(q, L1.pencil, degree) for q in products]
        kernel = kernel_basis(list(zip(*columns)), 3, field)

        def discriminant(phi):
            # the dual quadric's p1^2 - p0*p2, not the quadric's p1^2 - 4*p0*p2
            p0, p1, p2 = phi
            return field.sub(field.mul(p1, p1), field.mul(p0, p2))

        if _nonvanishing_member([field.zero] * 3, kernel, discriminant, field) is not None:
            return "lal", []
        return "not_lal", []
    if not (lci_along_support(L1) and lci_along_support(L2)):
        return "not_lal", []
    if relation == "disjoint":
        return "lal", []
    free = _meeting_geometry(L1, L2)[3]
    I1, I2 = double_line_ideal(L1), double_line_ideal(L2)
    U = ideal_intersect(I1, I2)
    field = L1.ring.field
    meet_coords = [field.zero] * 4
    meet_coords[free] = field.one
    meeting = RationalPoint.projective(L1.ring, meet_coords)
    mu = local_mu(translate_to_origin(U, meeting))
    # U has codimension 2: each I_i lies between (v1, v2)^2 and (v1, v2) of
    # its support line, so both lines, and so their union, have codimension 2
    report = LocalPointReport(
        mu=mu, codim=2, lci=(mu == 2), point=meeting, note="gorenstein not requested"
    )
    return ("lal" if report.lci else "not_lal"), [report]


def classify(L1, L2, mode="both", seed=0):
    """Classify a pair of double lines.

    mode 'conditions' runs the explicit classification, 'oracle' the
    geometric one, and 'both' runs both and raises
    ClassificationDiscrepancy on any disagreement.  Both are deterministic:
    seed is accepted for existing callers and has no effect.
    """
    if mode not in ("conditions", "oracle", "both"):
        raise ValueError(f"unknown classification mode {mode!r}")
    if L1.ring != L2.ring:
        raise ValueError("double lines live in different ring contexts")
    relation = support_relation(L1, L2)
    if relation == "equal":
        verdict = classify_same_support_pair(L1, L2)
    elif relation == "meeting":
        verdict = classify_meeting_pair(L1, L2)
    else:
        verdict = ClassificationVerdict(True, "disjoint")
    verdict.mode = mode
    if mode == "conditions":
        return verdict
    oracle_verdict, reports = oracle_lal(L1, L2)
    verdict.oracle_verdict = oracle_verdict
    verdict.point_reports = reports
    if mode == "oracle":
        verdict.lal = oracle_verdict == "lal"
        return verdict
    if (oracle_verdict == "lal") != verdict.lal:
        raise ClassificationDiscrepancy(
            f"conditions say lal={verdict.lal} ({verdict.case_tag}) but the "
            f"oracle says {oracle_verdict} for pair ({L1}, {L2})"
        )
    return verdict
