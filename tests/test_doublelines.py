import collections
import hashlib
import itertools
import math
import random
import sys

import pytest

from liaison import (
    ClassificationDiscrepancy,
    DoubleLine,
    Ideal,
    classify,
    classify_meeting_pair,
    classify_same_support_pair,
    double_line_ideal,
    hilbert_data,
    ideal_colon,
    ideal_equal,
    ideal_intersect,
    ideal_product,
    link,
    local_ci_test,
    make_ring,
    oracle_lal,
    parse_polynomial,
)
from liaison import doublelines
from liaison.doublelines import lci_along_support
from liaison.generators import (
    random_ci_linked_triple,
    random_coprime_pair,
    random_meeting_instance,
    random_same_support_instance,
)
from liaison.groebner import buchberger
from liaison.linalg import kernel_basis, rank
from liaison.polynomials import (
    Polynomial,
    binary_coefficients,
    binary_form,
    binary_forms_have_common_zero,
    substitute,
)


@pytest.fixture
def P3():
    return make_ring(["x", "y", "z", "u"], "Q", "grevlex")


def _line(ring, support, f, g):
    return DoubleLine(ring, support, (f, g))


def test_double_line_ideal_degree(P3):
    x, y, z, u = P3.gens()
    L = _line(P3, (0, 1), z, u)
    data = hilbert_data(double_line_ideal(L))
    assert data.degree == 2 and data.projective_dimension == 1


def test_binary_forms_common_zero(P3):
    x, y, z, u = P3.gens()
    pencil = (2, 3)
    assert not binary_forms_have_common_zero(z, u, pencil)
    assert not binary_forms_have_common_zero(z**2 + u**2, z * u, pencil)
    assert binary_forms_have_common_zero(z * (z + u), (z + u) * u, pencil)  # at (1:-1)
    assert binary_forms_have_common_zero(u, u * z, pencil)  # at (1:0)
    assert binary_forms_have_common_zero(z**2, z * u, pencil)  # at (0:1)
    assert binary_forms_have_common_zero(z, P3.zero(), pencil)
    assert not binary_forms_have_common_zero(P3.one(), P3.zero(), pencil)


def test_binary_coefficients_layout_and_round_trip(P3):
    x, y, z, u = P3.gens()
    # c_k is the coefficient of v^k * w^(d-k) for the pencil (v, w)
    f = 5 * u**3 - 2 * z**2 * u + 7 * z**3
    assert binary_coefficients(f, (2, 3), 3) == [5, 0, -2, 7]
    assert binary_coefficients(f, (3, 2), 3) == [7, -2, 0, 5]
    assert binary_coefficients(P3.zero(), (2, 3), 2) == [0, 0, 0]
    assert binary_form(P3, (2, 3), [P3.field.normalize(c) for c in (5, 0, -2, 7)]) == f
    rng = random.Random(11)
    for field in ("F3", "F31", "Q"):
        R = make_ring(["x", "y", "z", "u"], field, "grevlex")
        pool = R.field.random_sample() + [R.field.zero]
        for pencil in ((2, 3), (3, 2), (1, 3), (0, 2)):
            for d in range(4):
                coeffs = [rng.choice(pool) for _ in range(d + 1)]
                form = binary_form(R, pencil, coeffs)
                assert binary_coefficients(form, pencil, d) == coeffs
                assert binary_form(R, pencil, binary_coefficients(form, pencil, d)) == form


def _unchecked_line(ring, support, f, g):
    """A DoubleLine built without its constructor's checks."""
    line = object.__new__(DoubleLine)
    for name, value in (("ring", ring), ("support", support), ("forms", (f, g))):
        object.__setattr__(line, name, value)
    return line


@pytest.mark.parametrize("field", ["F3", "F5", "F31", "Q"])
def test_common_zero_agrees_with_hilbert_dimension(field):
    # independent oracle: f, g share a zero on the support line iff the cone
    # of (f, g, v1, v2) has Krull dimension at least 1; the oracle's
    # lci_along_support must say the opposite, degree-0 forms included
    R = make_ring(["x", "y", "z", "u"], field, "grevlex")
    x, y, z, u = R.gens()
    zero = R.field.zero
    pool = R.field.random_sample() + [zero]
    pencil = (2, 3)
    rng = random.Random(23)
    for case in range(60):
        cf = [rng.choice(pool) for _ in range(rng.randint(0, 3) + 1)]
        cg = [rng.choice(pool) for _ in range(rng.randint(0, 3) + 1)]
        if case % 3 == 1:  # forced shared zero at (0:1)
            cf[0] = cg[0] = zero
        elif case % 3 == 2:  # forced shared zero at (1:0)
            cf[-1] = cg[-1] = zero
        f, g = binary_form(R, pencil, cf), binary_form(R, pencil, cg)
        expected = hilbert_data(Ideal(R, [f, g, x, y])).krull_dimension >= 1
        assert binary_forms_have_common_zero(f, g, pencil) == expected, (f, g)
        assert lci_along_support(_unchecked_line(R, (0, 1), f, g)) != expected, (f, g)


def test_lci_along_support_sylvester_edges(P3):
    # the certificate is binary_forms_have_common_zero on (f, g) in the
    # pencil (z, u), the constructor's Euclid test; (z:u) = (1:0) is where
    # the u-free coefficient vanishes
    x, y, z, u = P3.gens()
    one, zero = P3.one(), P3.zero()
    cases = [
        (one, 3 * one, True),  # two nonzero constants: an empty matrix
        (zero, 2 * one, True),  # a zero form beside a nonzero constant
        (one, zero, True),
        (zero, z, False),  # a zero form beside a form with a zero
        (u**2 + z * u, zero, False),
        (zero, zero, False),
        (z, u**2, True),  # unequal degrees
        (z**2 + u**2, 5 * one, True),
        (u, z * u + u**2, False),  # unequal degrees, shared zero at (1:0)
        (z * u, u * (z + u), False),  # shared zero at (1:0)
        (z * u, z * (z + u), False),  # shared zero at (0:1)
        (z**2, z * u - u**2, True),
    ]
    for f, g, expected in cases:
        assert lci_along_support(_unchecked_line(P3, (0, 1), f, g)) is expected, (f, g)
        assert lci_along_support(_unchecked_line(P3, (0, 1), g, f)) is expected, (g, f)
        assert binary_forms_have_common_zero(f, g, (2, 3)) is not expected, (f, g)


def test_double_line_degenerate_forms(P3):
    x, y, z, u = P3.gens()
    L = _line(P3, (0, 1), P3.one(), P3.one())
    I = double_line_ideal(L)
    assert ideal_equal(I, Ideal(P3, [x + y, x**2]))
    assert hilbert_data(I).degree == 2


def test_double_line_rejects_common_zero(P3):
    x, y, z, u = P3.gens()
    with pytest.raises(ValueError, match="zero"):
        _line(P3, (0, 1), z, z)
    with pytest.raises(ValueError):
        _line(P3, (0, 1), z, P3.zero())  # zero form of positive partner degree
    with pytest.raises(ValueError):
        _line(P3, (0, 1), z**2, u)  # unequal degrees


def test_double_line_rejects_support_variables_in_forms(P3):
    x, y, z, u = P3.gens()
    with pytest.raises(ValueError, match="pencil"):
        _line(P3, (0, 1), x, u)


def test_double_line_refusals_name_their_reason(P3):
    x, y, z, u = P3.gens()
    P2 = make_ring(["x", "y", "z"], "Q", "grevlex")
    other = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    refused = [
        ((P2, (0, 1), (P2.gens()[2], P2.one())), "double lines live in a 4-variable ring (P^3)"),
        ((P3, (0, 0), (z, u)), "support must be two distinct variable indices"),
        ((P3, (0, 1), (other.gens()[2], u)), "forms from a different ring context"),
        ((P3, (0, 1), (z, y)), "forms must involve only the pencil variables"),
        ((P3, (0, 1), (z + 1, u)), "forms must be homogeneous"),
        ((P3, (0, 1), (P3.zero(), P3.zero())), "both forms vanish"),
    ]
    for (ring, support, forms), message in refused:
        with pytest.raises(ValueError) as info:
            DoubleLine(ring, support, forms)
        assert str(info.value) == message


def test_classification_refuses_mismatched_input(P3):
    x, y, z, u = P3.gens()
    L = _line(P3, (0, 1), z, u)
    meeting, same = _line(P3, (0, 2), y, u), _line(P3, (0, 1), u, z)
    with pytest.raises(ValueError, match="unknown classification mode 'fast'"):
        classify(L, same, mode="fast")
    other = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    z31, u31 = other.gens()[2:]
    with pytest.raises(ValueError, match="double lines live in different ring contexts"):
        classify(L, _line(other, (0, 1), z31, u31))
    with pytest.raises(ValueError, match="classify_meeting_pair needs supports meeting in one point"):
        classify_meeting_pair(L, same)
    with pytest.raises(ValueError, match="classify_same_support_pair needs equal supports"):
        classify_same_support_pair(L, meeting)


def test_meeting_case_a(P3):
    x, y, z, u = P3.gens()
    v = classify(_line(P3, (0, 1), z, u), _line(P3, (0, 2), y, u), mode="both", seed=1)
    assert v.lal and v.case_tag == "meeting_a"


def test_meeting_case_b_holds(P3):
    x, y, z, u = P3.gens()
    v = classify(_line(P3, (0, 1), u, z), _line(P3, (0, 2), u, y), mode="both", seed=1)
    assert v.lal and v.case_tag == "meeting_b"
    assert v.witness["lambda"] == "1"


def test_meeting_case_b_violated(P3):
    x, y, z, u = P3.gens()
    v = classify(
        _line(P3, (0, 1), 2 * u, z), _line(P3, (0, 2), u, y), mode="both", seed=1
    )
    assert not v.lal and v.case_tag == "not_linked"


def test_meeting_one_sided_zero(P3):
    x, y, z, u = P3.gens()
    v = classify(_line(P3, (0, 1), z, u), _line(P3, (0, 2), u, y), mode="both", seed=1)
    assert not v.lal
    assert v.witness["failed"] == "one-sided tangency"


def test_meeting_cross_form_decisive_instances(P3):
    # these distinguish the tangent identity's cross form from its naive
    # reading; pinned by the geometric oracle
    x, y, z, u = P3.gens()
    good = classify(
        _line(P3, (0, 1), u, 2 * z), _line(P3, (0, 2), 2 * u, 4 * y), mode="both", seed=2
    )
    assert good.lal and good.case_tag == "meeting_b"
    bad = classify(
        _line(P3, (0, 1), 2 * u, z), _line(P3, (0, 2), u, 2 * y), mode="both", seed=2
    )
    assert not bad.lal


def test_same_support_pm(P3):
    x, y, z, u = P3.gens()
    v = classify(_line(P3, (0, 1), z, u), _line(P3, (0, 1), z, -u), mode="both", seed=1)
    assert v.lal and v.case_tag == "same_support_pm"
    assert v.witness["N"] == [["1", "0"], ["0", "-1"]]
    Y = Ideal(P3, [x**2, y**2])
    assert sorted(v.witness["extension"]) == sorted(str(g) for g in Y.groebner().elements)


def test_same_support_equal(P3):
    x, y, z, u = P3.gens()
    L1 = _line(P3, (0, 1), z, u)
    L2 = _line(P3, (0, 1), 3 * z, 3 * u)
    v = classify(L1, L2, mode="both", seed=1)
    assert v.lal and v.case_tag == "same_support_equal"


def test_same_support_shear_not_linked(P3):
    x, y, z, u = P3.gens()
    v = classify(
        _line(P3, (0, 1), z, u), _line(P3, (0, 1), z, z + u), mode="both", seed=1
    )
    assert not v.lal


def test_same_support_degree_mismatch_not_linked(P3):
    x, y, z, u = P3.gens()
    v = classify(
        _line(P3, (0, 1), z, u), _line(P3, (0, 1), z**2, u**2 + z * u), mode="both", seed=1
    )
    assert not v.lal
    assert v.witness["failed"] == "form degrees differ"


def test_same_support_swap_matrix(P3):
    x, y, z, u = P3.gens()
    v = classify(
        _line(P3, (0, 1), P3.one(), P3.zero()),
        _line(P3, (0, 1), P3.zero(), P3.one()),
        mode="both",
        seed=1,
    )
    assert v.lal and v.case_tag == "same_support_pm"


def test_disjoint_supports(P3):
    x, y, z, u = P3.gens()
    L1, L2 = _line(P3, (0, 1), z, u), _line(P3, (2, 3), x, y)
    v = classify(L1, L2, mode="both")
    assert v.lal and v.case_tag == "disjoint"
    assert v.oracle_verdict == "lal"
    assert lci_along_support(L1) and lci_along_support(L2)
    assert v.point_reports == []


def test_oracle_rejects_common_zero_where_a_pencil_coordinate_vanishes(P3):
    # z*u and z*(z+u) share the zero (0:0:0:1) on x = y = 0, where the
    # pencil coordinate z vanishes; the meeting partners meet the line at
    # (0:0:1:0) and (0:0:0:1)
    x, y, z, u = P3.gens()
    bad = _unchecked_line(P3, (0, 1), z * u, z * (z + u))
    assert not lci_along_support(bad)
    partners = (
        _line(P3, (2, 3), x, y),
        _line(P3, (0, 3), y, z),
        _line(P3, (0, 2), y, u),
    )
    for partner in partners:
        assert oracle_lal(bad, partner)[0] == "not_lal", partner
        assert oracle_lal(partner, bad)[0] == "not_lal", partner


def test_classify_symmetric_under_swap(P3):
    x, y, z, u = P3.gens()
    pairs = [
        (_line(P3, (0, 1), z, u), _line(P3, (0, 2), y, u)),
        (_line(P3, (0, 1), u, z), _line(P3, (0, 2), u, y)),
        (_line(P3, (0, 1), 2 * u, z), _line(P3, (0, 2), u, y)),
        (_line(P3, (0, 1), z, u), _line(P3, (0, 1), z, -u)),
        (_line(P3, (0, 1), z, u), _line(P3, (2, 3), x, y)),
    ]
    for L1, L2 in pairs:
        v1 = classify(L1, L2, mode="conditions", seed=1)
        v2 = classify(L2, L1, mode="conditions", seed=1)
        assert v1.lal == v2.lal


def test_classify_invariant_under_scaling(P3):
    x, y, z, u = P3.gens()
    L1 = _line(P3, (0, 1), u, z)
    L2 = _line(P3, (0, 2), u, y)
    for c in (2, -1, 5):
        v = classify(L1.scaled(c), L2, mode="conditions", seed=1)
        w = classify(L1, L2.scaled(c), mode="conditions", seed=1)
        assert v.lal and w.lal


def test_positive_witness_links_both_ways(P3):
    rng = random.Random(71)
    F = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    for _ in range(5):
        L1, L2, N = random_same_support_instance(F, rng, traceless=True)
        v = classify(L1, L2, mode="both", seed=3)
        assert v.lal
        # rebuild the witness from its printed generators
        Y = Ideal(F, [parse_polynomial(s, F) for s in v.witness["extension"]])
        I1, I2 = double_line_ideal(L1), double_line_ideal(L2)
        assert ideal_equal(ideal_colon(Y, I1), I2)
        assert ideal_equal(ideal_colon(Y, I2), I1)
        assert hilbert_data(Y).degree == 4


def test_oracle_mode_standalone(P3):
    x, y, z, u = P3.gens()
    L1 = _line(P3, (0, 1), z, u)
    L2 = _line(P3, (0, 2), y, u)
    v = classify(L1, L2, mode="oracle", seed=9)
    assert v.lal and v.oracle_verdict == "lal"
    bad = classify(_line(P3, (0, 1), 2 * u, z), _line(P3, (0, 2), u, y), mode="oracle", seed=9)
    assert not bad.lal and bad.oracle_verdict == "not_lal"


def _eigenspace_pencil(ring, support, N):
    """The reference construction of the same-support witness: the
    D-eigenspace (D = -det N) of q -> q(N*v) on quadrics in the support
    variables, spanned by the squared eigenforms of a traceless N."""
    field = ring.field
    v1n, v2n = (ring.variables[k] for k in support)
    v1, v2 = Polynomial.variable(ring, v1n), Polynomial.variable(ring, v2n)
    (n11, n12), (n21, n22) = N
    assignment = {name: Polynomial.variable(ring, name) for name in ring.variables}
    assignment[v1n] = v1.scale(n11) + v2.scale(n12)
    assignment[v2n] = v1.scale(n21) + v2.scale(n22)
    # quadrics as binary forms in the pencil (v2, v1): v1^2, v1*v2, v2^2
    pencil = (support[1], support[0])
    rows = [
        binary_coefficients(substitute(q, assignment, ring=ring), pencil, 2)
        for q in (v1 * v1, v1 * v2, v2 * v2)
    ]
    D = field.sub(field.mul(n12, n21), field.mul(n11, n22))
    # the action on coordinate vectors is rows^T; its eigenvectors for D
    mat = [[field.sub(rows[l][k], D if k == l else field.zero) for l in range(3)] for k in range(3)]
    return Ideal(ring, [binary_form(ring, pencil, vec) for vec in kernel_basis(mat, 3, field)])


@pytest.mark.parametrize("field", ["F5", "F31", "Q"])
def test_closed_form_pencil_matches_the_eigenspace(field):
    # every nonsingular traceless N with entries from a small pool
    R = make_ring(["x", "y", "z", "u"], field, "grevlex")
    F = R.field
    pool = [F.normalize(k) for k in range(-2, 3)]
    cases = 0
    for support in ((0, 1), (1, 0), (0, 2), (2, 3)):
        for n11, n12, n21 in itertools.product(pool, repeat=3):
            N = [[n11, n12], [n21, F.neg(n11)]]
            if F.add(F.mul(n11, n11), F.mul(n12, n21)) == F.zero:
                continue
            Y = doublelines._pm_extension_ideal(R, support, N)
            assert len(Y.gens) == 2
            reference = _eigenspace_pencil(R, support, N)
            assert Y.groebner().elements == reference.groebner().elements, (support, N)
            cases += 1
    assert cases >= 300


def test_oracle_decides_same_support(P3):
    x, y, z, u = P3.gens()
    L1 = _line(P3, (0, 1), z, u)
    assert oracle_lal(L1, _line(P3, (0, 1), z, -u)) == ("lal", [])
    assert oracle_lal(L1, _line(P3, (0, 1), z, z + u)) == ("not_lal", [])
    # equal ideals: locally self-linked, though no quadric CI links them
    assert oracle_lal(L1, _line(P3, (1, 0), 3 * u, 3 * z)) == ("lal", [])


def _same_support_campaign(field, rng):
    """(L1, L2, linked) on the line x = y = 0: pairs related by a traceless
    or a non-traceless N (linked iff traceless), pairs of degree-0 forms
    (any two distinct planar double lines are linked) and pairs of unequal
    degree (never linked)."""
    R = make_ring(["x", "y", "z", "u"], field, "grevlex")
    pencil = (2, 3)
    cases = []
    for i in range(40):
        L1, L2, _N = random_same_support_instance(R, rng, traceless=i % 2 == 0)
        cases.append((L1, L2, i % 2 == 0))
    while len(cases) < 46:
        a1, b1 = random_coprime_pair(R, pencil, 0, rng)
        a2, b2 = random_coprime_pair(R, pencil, 0, rng)
        if not (a1 * b2 - a2 * b1).is_zero():
            cases.append((_line(R, (0, 1), a1, b1), _line(R, (0, 1), a2, b2), True))
    while len(cases) < 52:
        r1, r2 = rng.sample(range(4), 2)
        cases.append((
            _line(R, (0, 1), *random_coprime_pair(R, pencil, r1, rng)),
            _line(R, (0, 1), *random_coprime_pair(R, pencil, r2, rng)),
            False,
        ))
    return cases


@pytest.mark.parametrize("field", ["F3", "F5", "F31", "Q"])
def test_same_support_oracle_matches_construction(field):
    # pins the dual discriminant p1^2 - p0*p2: the quadric's p1^2 - 4*p0*p2
    # gives wrong verdicts here outside characteristic 3
    rng = random.Random(61)
    for L1, L2, linked in _same_support_campaign(field, rng):
        expected = ("lal" if linked else "not_lal", [])
        assert oracle_lal(L1, L2) == expected, (L1, L2)
        assert oracle_lal(L2, L1) == expected, (L2, L1)
        assert classify_same_support_pair(L1, L2).lal == linked, (L1, L2)


@pytest.mark.parametrize("field", ["F31", "Q"])
def test_same_support_modes_use_the_oracle(field, monkeypatch):
    # a classifier that answers wrongly on equal supports: 'oracle' must
    # still give the right verdict and 'both' must refuse to answer
    real = classify_same_support_pair

    def flipped(*args, **kwargs):
        verdict = real(*args, **kwargs)
        verdict.lal = not verdict.lal
        return verdict

    monkeypatch.setattr(doublelines, "classify_same_support_pair", flipped)
    R = make_ring(["x", "y", "z", "u"], field, "grevlex")
    rng = random.Random(67)
    for i in range(10):
        traceless = i % 2 == 0
        L1, L2, _N = random_same_support_instance(R, rng, traceless)
        seed = rng.randrange(10**6)
        v = classify(L1, L2, mode="oracle", seed=seed)
        assert v.lal == traceless and v.oracle_verdict == ("lal" if traceless else "not_lal")
        with pytest.raises(ClassificationDiscrepancy):
            classify(L1, L2, mode="both", seed=seed)


def test_small_randomized_agreement_campaign():
    rng = random.Random(73)
    R = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    for case, expected in (
        ("a", True),
        ("b_hold", True),
        ("b_violate", False),
        ("one_sided", False),
    ):
        for _ in range(3):
            L1, L2 = random_meeting_instance(R, case, rng)
            v = classify(L1, L2, mode="both", seed=rng.randrange(10**6))
            assert v.lal == expected


def test_meeting_report_agrees_with_local_ci_test():
    # the oracle reads mu at the meeting point and takes codimension 2 from
    # the supports; local_ci_test reads it off the Artinian reduction
    rng = random.Random(1604)
    R = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    verdicts = set()
    for case in ("a", "b_hold", "b_violate", "one_sided") * 10:
        L1, L2 = random_meeting_instance(R, case, rng)
        _, (report,) = oracle_lal(L1, L2)
        U = ideal_intersect(double_line_ideal(L1), double_line_ideal(L2))
        full = local_ci_test(U, report.point)
        assert (report.mu, report.codim, report.lci) == (full.mu, full.codim, full.lci)
        verdicts.add(report.lci)
    assert verdicts == {True, False}


def test_meeting_classification_computes_no_hilbert_data(P3, monkeypatch):
    from liaison import ideals

    calls = []
    original = ideals._hilbert_data

    def counting(I):
        calls.append(I)
        return original(I)

    monkeypatch.setattr(ideals, "_hilbert_data", counting)
    x, y, z, u = P3.gens()
    pairs = [
        (_line(P3, (0, 1), z, u), _line(P3, (0, 2), y, u)),  # both values nonzero
        (_line(P3, (0, 1), u, z), _line(P3, (0, 2), u, y)),  # tangent identity holds
        (_line(P3, (0, 1), 2 * u, z), _line(P3, (0, 2), u, y)),  # it fails
    ]
    for L1, L2 in pairs:
        v = classify(L1, L2, mode="both")
        assert v.oracle_verdict is not None and len(v.point_reports) == 1
    assert calls == []


def _count_colons(monkeypatch):
    """Count ideal_colon calls from every liaison module that imports it."""
    calls = []

    def counting(I, J):
        calls.append((I, J))
        return ideal_colon(I, J)

    for name, module in list(sys.modules.items()):
        if name.startswith("liaison") and hasattr(module, "ideal_colon"):
            monkeypatch.setattr(module, "ideal_colon", counting)
    return calls


def _links_by_colons(Y, L1, L2):
    """The reference check the certificate replaces: Y is a quadric complete
    intersection of degree 4 with (Y : I1) = I2 and (Y : I2) = I1."""
    I1, I2 = double_line_ideal(L1), double_line_ideal(L2)
    return (
        len(Y.gens) == 2
        and hilbert_data(Y).degree == 4
        and ideal_equal(ideal_colon(Y, I1), I2)
        and ideal_equal(ideal_colon(Y, I2), I1)
    )


def _recording_witnesses(monkeypatch):
    """The extensions Y the classifier builds, in order."""
    built = []
    real = doublelines._pm_extension_ideal

    def recording(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(doublelines, "_pm_extension_ideal", recording)
    return built


def test_certified_witness_makes_no_colon(P3, monkeypatch):
    x, y, z, u = P3.gens()
    calls = _count_colons(monkeypatch)
    v = classify_same_support_pair(_line(P3, (0, 1), z, u), _line(P3, (0, 1), z, -u))
    assert v.lal and v.case_tag == "same_support_pm"
    assert calls == []


def test_witness_certificate_agrees_with_colons(monkeypatch):
    # held-out seed: 40 traceless same-support pairs, then each witness Y
    # perturbed by a quadric in the support variables, twice
    F = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    rng = random.Random(1001)
    built = _recording_witnesses(monkeypatch)
    cases = []
    for _ in range(40):
        L1, L2, _N = random_same_support_instance(F, rng, traceless=True)
        assert classify_same_support_pair(L1, L2).lal
        cases.append((L1, L2, built[-1]))
    for L1, L2, Y in cases:
        assert doublelines._witness_links_by_certificate(Y, L1, L2)
        assert _links_by_colons(Y, L1, L2)
    x, y = F.gens()[:2]
    rejected = 0
    for k, (L1, L2, Y) in enumerate(cases * 2):
        q = x * x * rng.randrange(31) + x * y * rng.randrange(31) + y * y * rng.randrange(31)
        gens = list(Y.gens)
        gens[k % 2] = gens[k % 2] + q
        perturbed = Ideal(F, gens)
        linked = _links_by_colons(perturbed, L1, L2)
        assert doublelines._witness_links_by_certificate(perturbed, L1, L2) == linked
        monkeypatch.setattr(doublelines, "_pm_extension_ideal", lambda *args: perturbed)
        if linked:
            assert classify_same_support_pair(L1, L2).lal
        else:
            rejected += 1
            with pytest.raises(ClassificationDiscrepancy):
                classify_same_support_pair(L1, L2)
    assert rejected >= 60


def _random_nonsingular_traceless(field, rng):
    sample = field.random_sample()
    while True:
        n11, n12, n21 = (rng.choice(sample) for _ in range(3))
        if field.add(field.mul(n11, n11), field.mul(n12, n21)) != field.zero:  # -det
            return [[n11, n12], [n21, field.neg(n11)]]


@pytest.mark.parametrize("field", ["F31", "F5", "Q"])
def test_line_product_check_agrees_with_all_products(field):
    # F1*F2 and (v1, v2)^3 inside Y, against all sixteen products of I1*I2
    # inside Y: the witness of a traceless pair passes both.  Both reject a
    # Y from another traceless N (its phi off the witness's line), the
    # witness with one quadric moved off its span, every Y for a pair
    # related by a non-traceless N (no phi kills its products), and the
    # principal ideal (F1*F2), which holds no cubic in v1, v2.
    R = make_ring(["x", "y", "z", "u"], field, "grevlex")
    F = R.field
    rng = random.Random(f"line product {field}")

    def phi(N):
        return [F.neg(N[0][1]), N[0][0], N[1][0]]

    def witness(N):
        return doublelines._pm_extension_ideal(R, (0, 1), N)

    cases = []
    for i in range(16):
        traceless = i % 2 == 0
        L1, L2, N = random_same_support_instance(R, rng, traceless)
        other = _random_nonsingular_traceless(F, rng)
        while traceless and rank([phi(N), phi(other)], F) < 2:
            other = _random_nonsingular_traceless(F, rng)
        cases.append((L1, L2, witness(other), False))
        I1, I2 = double_line_ideal(L1), double_line_ideal(L2)
        cases.append((L1, L2, Ideal(R, [I1.gens[0] * I2.gens[0]]), False))
        if traceless:
            Y = witness(N)
            cases.append((L1, L2, Y, True))
            span = [binary_coefficients(q, (0, 1), 2) for q in Y.gens]
            while True:
                coeffs = [rng.choice(F.random_sample()) for _ in range(3)]
                if rank(span + [coeffs], F) == 3:
                    break
            q1, q2 = Y.gens
            cases.append((L1, L2, Ideal(R, [q1 + binary_form(R, (0, 1), coeffs), q2]), False))
    for L1, L2, Y, linked in cases:
        I1, I2 = double_line_ideal(L1), double_line_ideal(L2)
        assert Y.contains_ideal(ideal_product(I1, I2)) == linked, (L1, L2, Y)
        assert doublelines._holds_line_product(Y, I1, I2, L1.support) == linked, (L1, L2, Y)
    assert len(cases) == 48


def test_unequal_same_support_oracle_takes_one_basis(monkeypatch):
    # ideal_equal tests the first line's generators against the second's
    # basis and stops at F1, so an unequal pair costs one basis; an equal
    # pair (a line and its rescaling) takes both
    from liaison import ideals

    calls = []

    def counted(gens, *args, **kwargs):
        calls.append(gens)
        return buchberger(gens, *args, **kwargs)

    inside = []

    def recording(I, J):
        before = len(calls)
        equal = ideal_equal(I, J)
        inside.append((equal, len(calls) - before))
        return equal

    monkeypatch.setattr(ideals, "buchberger", counted)
    monkeypatch.setattr(doublelines, "ideal_equal", recording)
    R = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    rng = random.Random(2203)
    for i in range(6):
        L1, L2, _N = random_same_support_instance(R, rng, traceless=i % 2 == 0)
        calls.clear()
        inside.clear()
        assert oracle_lal(L1, L2)[0] == ("lal" if i % 2 == 0 else "not_lal")
        assert inside == [(False, 1)] and len(calls) == 1
    inside.clear()
    assert oracle_lal(L1, L1.scaled(3)) == ("lal", [])
    assert inside == [(True, 2)]


def test_witness_for_lines_with_a_common_zero_is_refused(P3, monkeypatch):
    # forms sharing the factor z: each ideal has an embedded point at
    # (0:0:0:1), so Y = (x^2, y^2) holds I1*I2 yet links neither way.  Only
    # the lci certificate tells this apart, and it refuses the witness
    # without a colon.
    x, y, z, u = P3.gens()
    L1 = _unchecked_line(P3, (0, 1), z * u, z * (z + u))
    L2 = _unchecked_line(P3, (0, 1), z * u, -z * (z + u))
    assert not _links_by_colons(Ideal(P3, [x * x, y * y]), L1, L2)
    calls = _count_colons(monkeypatch)
    with pytest.raises(ClassificationDiscrepancy):
        classify_same_support_pair(L1, L2)
    assert calls == []


def _small_field_candidates(ring, support):
    """Every pair (f, g) of binary forms of equal degree d <= 1 on the
    support, not both zero, with first nonzero coefficient 1: one per double
    line up to scaling.  Yields (d, coefficients, f, g)."""
    pencil = tuple(k for k in range(4) if k not in support)
    field = ring.field
    elements = [field.normalize(k) for k in range(field.characteristic)]
    for d in (0, 1):
        for coeffs in itertools.product(elements, repeat=2 * (d + 1)):
            if next((c for c in coeffs if c != field.zero), None) != field.one:
                continue
            f = binary_form(ring, pencil, list(coeffs[: d + 1]))
            g = binary_form(ring, pencil, list(coeffs[d + 1 :]))
            yield d, coeffs, f, g


def _small_field_lines(ring, support):
    lines = []
    for _d, _coeffs, f, g in _small_field_candidates(ring, support):
        try:
            lines.append(DoubleLine(ring, support, (f, g)))
        except ValueError:
            pass
    return lines


@pytest.mark.parametrize("field", ["F3", "F5"])
def test_constructor_accepts_exactly_the_coprime_small_field_lines(field):
    # closed form: constant pairs always share no zero, and two linear forms
    # share none iff they are independent, so the constructor accepts the
    # q+1 points of P^1(F_q) in degree 0 and the (q^2-1)(q^2-q)/(q-1)
    # invertible matrices up to scaling in degree 1
    R = make_ring(["x", "y", "z", "u"], field, "grevlex")
    q = R.field.characteristic
    for support in ((0, 1), (0, 2)):
        accepted = 0
        for d, coeffs, f, g in _small_field_candidates(R, support):
            coprime = d == 0 or R.field.mul(coeffs[0], coeffs[3]) != R.field.mul(coeffs[1], coeffs[2])
            try:
                DoubleLine(R, support, (f, g))
            except ValueError as exc:
                assert not coprime and "share a zero" in str(exc), (f, g)
                continue
            assert coprime, (f, g)
            accepted += 1
        assert accepted == (q + 1) + (q + 1) * (q * q - q)


def test_classify_buckets_on_every_small_field_pair():
    # every pair of F3 double lines of degree <= 1, on {x=y=0} and {x=z=0}
    # (meeting) and twice on {x=y=0} (same support).  The counts were
    # measured with classify(mode="both") when this test was added; "both"
    # raises unless the conditions and the oracle agree on every pair, so
    # pinned counts also catch a change that moves both the same way.
    # Meeting: b is nonzero at the meeting point on 21 of the 28 lines of
    # each support, so 21^2 = 441 pairs are meeting_a; of the 7^2 pairs with
    # both values zero, 19 satisfy the tangent identity.  Same support: the
    # 28 equal pairs are the diagonal.
    R = make_ring(["x", "y", "z", "u"], "F3", "grevlex")
    first, second = _small_field_lines(R, (0, 1)), _small_field_lines(R, (0, 2))
    assert len(first) == len(second) == 28
    meeting = collections.Counter(classify(L1, L2, mode="both").case_tag for L1 in first for L2 in second)
    assert meeting == {"meeting_a": 441, "meeting_b": 19, "not_linked": 324}
    same_verdicts = [(L1, L2, classify(L1, L2, mode="both")) for L1 in first for L2 in first]
    same = collections.Counter(verdict.case_tag for _, _, verdict in same_verdicts)
    assert same == {"same_support_equal": 28, "same_support_pm": 228, "not_linked": 528}
    # a same-support witness is a complete intersection, so linked lines
    # have dual Rao modules k[s,t]/(f, g) (see the Rao-module test below),
    # and that algebra is self-dual: both lines span one pencil of forms
    for L1, L2, verdict in same_verdicts:
        if verdict.lal:
            assert L1.degree == L2.degree
            rows = [binary_coefficients(form, L1.pencil, L1.degree) for form in (*L1.forms, *L2.forms)]
            assert rank(rows[:2], R.field) == rank(rows, R.field) == rank(rows[2:], R.field)


def _rao_dimension(d, j):
    """dim_k (k[s,t]/(f, g))_j for coprime binary forms f, g of degree d: the
    coefficients of ((1 - t^d)/(1 - t))^2, 0 for d = 0."""
    if 0 <= j <= d - 1:
        return j + 1
    if d - 1 <= j <= 2 * d - 2:
        return 2 * d - 1 - j
    return 0


@pytest.mark.parametrize("field", ["F31", "F5", "Q"])
def test_double_line_hilbert_function_is_the_rao_module_closed_form(field):
    # C the double line (f*v1 + g*v2, v1^2, v1*v2, v2^2) on L = {v1 = v2 = 0},
    # f, g coprime of degree d in the pencil (s, t).  The sequence
    # 0 -> I_C -> I_L -> O_L(d-1) -> 0, with v1*a + v2*b sent to a*f + b*g
    # on L, gives in degree n the cokernel M(C)_n = (k[s,t]/(f, g))_(n+d-1):
    # the Hartshorne-Rao module H^1(I_C(n)) (Rao 1979, Invent. Math. 50;
    # Migliore 1998, Introduction to Liaison Theory and Deficiency Modules).
    # I_C is saturated, and dim (I_L)_n = dim R_n - (n + 1), so for n >= 0
    #   H_{R/I_C}(n) = (n + 1) + (n + d) - r_d(n + d - 1) = 2n + d + 1 - r_d(n + d - 1),
    # r_d = _rao_dimension.  hilbert_data is read off a Groebner basis, so
    # this checks it, and the constructor's coprimality, with no Groebner
    # reasoning of its own
    rng = random.Random(f"rao/{field}")
    checked = 0
    for order in ("grevlex", "lex", "block(1)"):
        R = make_ring(["x", "y", "z", "u"], field, order)
        for support in ((0, 1), (0, 2), (1, 3), (2, 3)):
            pencil = tuple(k for k in range(4) if k not in support)
            for d in range(5):
                line = DoubleLine(R, support, random_coprime_pair(R, pencil, d, rng))
                numerator = hilbert_data(double_line_ideal(line)).numerator
                for n in range(16):
                    # the series is numerator / (1 - t)^4
                    value = sum(c * math.comb(n - k + 3, 3) for k, c in enumerate(numerator) if k <= n)
                    assert value == 2 * n + d + 1 - _rao_dimension(d, n + d - 1), (line, n)
                    checked += 1
    assert checked == 3 * 4 * 5 * 16


def _swapped(line):
    """The same double line, its support variables listed the other way:
    g*v2 + f*v1 is the same generator, so the ideal is unchanged."""
    (s1, s2), (f, g) = line.support, line.forms
    return DoubleLine(line.ring, (s2, s1), (g, f))


@pytest.mark.parametrize("field", ["F5", "F31", "Q"])
def test_classify_does_not_depend_on_the_support_order(field):
    # the generators list the shared support variable first; listing it
    # second must give the same verdict, witness and oracle report
    R = make_ring(["x", "y", "z", "u"], field, "grevlex")
    rng = random.Random(f"support-order/{field}")
    cases = ("a", "b_hold", "b_violate", "one_sided")
    pairs = [random_meeting_instance(R, case, rng) for case in cases for _ in range(6)]
    pairs += [random_same_support_instance(R, rng, traceless)[:2] for traceless in (True, False) for _ in range(6)]
    for L1, L2 in pairs:
        expected = classify(L1, L2, mode="both").as_dict()
        for M1, M2 in ((_swapped(L1), L2), (L1, _swapped(L2)), (_swapped(L1), _swapped(L2))):
            assert classify(M1, M2, mode="both").as_dict() == expected


def _relabelled(line, sigma):
    """The same double line after renaming variable i to variable sigma[i]."""
    ring = line.ring

    def moved(f):
        terms = {}
        for e, c in f.terms.items():
            image = [0] * ring.nvars
            for i, a in enumerate(e):
                image[sigma[i]] = a
            terms[tuple(image)] = c
        return Polynomial(ring, terms)

    return DoubleLine(ring, tuple(sigma[k] for k in line.support), tuple(moved(f) for f in line.forms))


@pytest.mark.parametrize("field", ["F5", "F31", "Q"])
def test_classify_does_not_depend_on_coordinates_or_scaling(field):
    # relabelling the variables maps supports to other supports; each
    # relabelling here moves the meeting point (0:0:0:1) off the last
    # variable, so the oracle's chart takes translate_to_origin's generic
    # path rather than the held basis of the last vertex.  Scaling a line's
    # forms keeps its ideal.  Verdict, case, oracle verdict and the meeting
    # point's mu stay the same; the witness is written in the orientation of
    # the forms (which support variable comes first, the scale of b1, b2)
    # and may change with it, so it is not compared
    R = make_ring(["x", "y", "z", "u"], field, "grevlex")
    rng = random.Random(f"relabel/{field}")
    moving = [sigma for sigma in itertools.permutations(range(4)) if sigma[3] != 3]
    cases = ("a", "b_hold", "b_violate", "one_sided")
    pairs = [random_meeting_instance(R, case, rng) for case in cases for _ in range(3)]
    pairs += [random_same_support_instance(R, rng, traceless)[:2] for traceless in (True, False) for _ in range(3)]
    scales = [c for c in R.field.random_sample() if c != R.field.one]

    def summary(verdict):
        return verdict.lal, verdict.case_tag, verdict.oracle_verdict, [r.mu for r in verdict.point_reports]

    for L1, L2 in pairs:
        expected = summary(classify(L1, L2, mode="both"))
        c = rng.choice(scales)
        for M1, M2 in ((L1.scaled(c), L2), (L1, L2.scaled(c))):
            assert summary(classify(M1, M2, mode="both")) == expected, (L1, L2, c)
        for sigma in rng.sample(moving, 3):
            verdict = classify(_relabelled(L1, sigma), _relabelled(L2, sigma), mode="both")
            assert summary(verdict) == expected, (L1, L2, sigma)
            assert all(r.point.chart == sigma[3] != 3 for r in verdict.point_reports)


def _generator_digests():
    """sha256 prefixes of 25 seeded F31 draws from each generator and case."""

    def line_text(line):
        return f"{line.support}: {line.forms[0]} | {line.forms[1]}"

    R = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    texts = {}
    for case in ("a", "b_hold", "b_violate", "one_sided"):
        rng = random.Random(f"meeting/{case}")
        pairs = (random_meeting_instance(R, case, rng) for _ in range(25))
        texts[f"meeting/{case}"] = [f"{line_text(L1)} ; {line_text(L2)}" for L1, L2 in pairs]
    for traceless in (True, False):
        rng = random.Random(f"same_support/{traceless}")
        triples = (random_same_support_instance(R, rng, traceless) for _ in range(25))
        texts[f"same_support/{traceless}"] = [f"{line_text(L1)} ; {line_text(L2)} ; {N}" for L1, L2, N in triples]
    for names in (["x", "y", "z"], ["x", "y", "z", "u"]):
        ring = make_ring(names, "F31", "grevlex")
        rng = random.Random(f"triple/{ring.nvars}")
        triples = (random_ci_linked_triple(ring, rng, max_degree=2) for _ in range(25))
        texts[f"triple/{ring.nvars}"] = [
            "None" if t is None else " ; ".join(", ".join(map(str, I.gens)) for I in t.ideals()) for t in triples
        ]
    return {key: hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16] for key, rows in texts.items()}


def test_generators_reproduce_their_seeded_draws():
    # the campaigns and the benchmark regenerate their inputs from a seed, so
    # a generator edit must leave every draw byte-identical: a changed digest
    # means changed inputs for every campaign and benchmark run
    assert _generator_digests() == {
        "meeting/a": "65e3b53f5e1df7e1",
        "meeting/b_hold": "851c3bfdc99082a3",
        "meeting/b_violate": "b421810cd6a5f9c1",
        "meeting/one_sided": "bbd8ca59598ef460",
        "same_support/True": "1119a82be911dab3",
        "same_support/False": "a0fc9ca4a8c494df",
        "triple/3": "5c6a683bb4a03ebd",
        "triple/4": "54f70489c9e9a131",
    }
