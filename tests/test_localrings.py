import itertools
import random
import tracemalloc
from pathlib import Path

import pytest

from liaison import (
    Ideal,
    Polynomial,
    RationalPoint,
    artinian_reduce,
    double_line_ideal,
    ideal_equal,
    local_ci_test,
    local_mu,
    MonomialOrder,
    make_ring,
    oracle_lal,
    parse_session,
    substitute,
    translate_to_origin,
)
from liaison.generators import (
    random_ci_linked_triple,
    random_form_dense,
    random_meeting_instance,
    random_monomial_ideal,
)
from liaison.groebner import buchberger, elimination_basis, normal_form
from liaison.ideals import (
    eliminate,
    hilbert_data,
    ideal_colon,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    is_zero_dimensional,
    local_leading_ideal,
    map_to_ring,
    minimal_monomial_generators,
    saturate,
    standard_monomials,
)
from liaison.linalg import rank
from liaison.linkage import is_regular
from liaison.localrings import is_graded_complete_intersection, local_gorenstein, socle_dimensions

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def P3():
    return make_ring(["x", "y", "z", "u"], "Q", "grevlex")


@pytest.fixture
def A3():
    return make_ring(["x", "y", "z"], "Q", "grevlex")


def test_translate_chart(P3):
    x, y, z, u = P3.gens()
    I = Ideal(P3, [z * x + u * y, x**2, x * y, y**2])
    p = RationalPoint.projective(P3, [0, 0, 0, 1])
    J = translate_to_origin(I, p)
    assert J.ring.variables == ("x", "y", "z")
    xx, yy, zz = J.ring.gens()
    assert ideal_equal(J, Ideal(J.ring, [zz * xx + yy, xx**2, xx * yy, yy**2]))


def test_translate_affine_identity(A3):
    x, y, z = A3.gens()
    I = Ideal(A3, [x])
    p = RationalPoint.affine(A3, [0, 0, 0])
    assert ideal_equal(translate_to_origin(I, p), I)


def test_translate_shifts_point(A3):
    x, y, z = A3.gens()
    I = Ideal(A3, [x - 1, y - 2])
    p = RationalPoint.affine(A3, [1, 2, 5])
    J = translate_to_origin(I, p)
    assert ideal_equal(J, Ideal(A3, [x, y]))


def test_rational_point_rejects_bad_coordinates(A3, P3):
    with pytest.raises(ValueError, match="wrong number of coordinates"):
        RationalPoint.affine(A3, [1, 2])
    with pytest.raises(ValueError, match="wrong number of coordinates"):
        RationalPoint.projective(P3, [1, 2, 3])
    with pytest.raises(ValueError, match="needs a nonzero coordinate"):
        RationalPoint.projective(P3, [0, 0, 0, 0])


def test_translate_point_off_variety_rejected(A3):
    x, *_ = A3.gens()
    with pytest.raises(ValueError):
        translate_to_origin(Ideal(A3, [x - 1]), RationalPoint.affine(A3, [0, 0, 0]))


def test_translate_rejects_inhomogeneous_ideal_at_projective_point(P3):
    # x + y^2 is a hypersurface; dehomogenizing it as if it were a form
    # would merge terms
    x, y, z, u = P3.gens()
    I = Ideal(P3, [x + y**2])
    p = RationalPoint.projective(P3, [0, 0, 0, 1])
    with pytest.raises(ValueError, match="homogeneous"):
        translate_to_origin(I, p)
    with pytest.raises(ValueError, match="homogeneous"):
        local_ci_test(I, p)
    # an affine point keeps the ring, so the ideal need not be homogeneous
    J = translate_to_origin(I, RationalPoint.affine(P3, [0, 0, 0, 1]))
    assert J.gens == (x + y**2,)


def _substitution_translate(I, point):
    """The translation by a full substitution into the chart ring: the
    reference the exponent-map translation must reproduce."""
    ring = I.ring
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


@pytest.mark.parametrize("field", ["Q", "F31"])
@pytest.mark.parametrize("order", ["grevlex", "lex", "block1"])
def test_translate_matches_substitution_reference(field, order):
    R = make_ring(
        ["x", "y", "z", "u"], field, MonomialOrder("block", 1) if order == "block1" else order
    )
    rng = random.Random(71)
    points = [
        RationalPoint.projective(R, [0, 0, 0, 1]),  # vertex: nothing to shift
        RationalPoint.projective(R, [0, 0, 1, 1]),
        RationalPoint.projective(R, [1, -2, 0, 3]),
        RationalPoint.projective(R, [2, 1, 0, 0]),  # chart y, not the last variable
        RationalPoint.affine(R, [0, 0, 0, 0]),
        RationalPoint.affine(R, [1, -2, 0, 3]),
    ]
    x = R.gens()
    checked = 0
    for point in points:
        p = point.coordinates
        if point.is_affine:
            vanishing = [x[i] - Polynomial.constant(R, p[i]) for i in range(4)]
        else:
            # the 2x2 minors p_j*x_i - p_i*x_j: forms vanishing at the point
            vanishing = [
                x[i].scale(p[j]) - x[j].scale(p[i]) for i, j in itertools.combinations(range(4), 2)
            ]
            vanishing = [m for m in vanishing if not m.is_zero()]
        for _ in range(4):
            gens = [
                m * random_form_dense(R, rng.randint(0, 2), rng)
                for m in rng.sample(vanishing, min(3, len(vanishing)))
            ]
            I = Ideal(R, gens)
            if not I.gens:
                continue
            J, expected = translate_to_origin(I, point), _substitution_translate(I, point)
            assert J.ring == expected.ring
            assert J.gens == expected.gens
            assert [str(g) for g in J.gens] == [str(g) for g in expected.gens]
            checked += 1
    assert checked == 4 * len(points)


def _vertex_forms(R, rng, count):
    """Sparse random forms of degree 1 or 2 vanishing at the vertex of the
    last variable (no pure power of it)."""
    forms = []
    while len(forms) < count:
        d = rng.randint(1, 2)
        monomials = [
            e for e in itertools.product(range(d + 1), repeat=R.nvars) if sum(e) == d and e[-1] < d
        ]
        chosen = rng.sample(monomials, min(3, len(monomials)))
        f = Polynomial.from_dict(R, {e: rng.choice(R.field.random_sample()) for e in chosen})
        if not f.is_zero():
            forms.append(f)
    return forms


@pytest.mark.parametrize("field", ["F3", "F5", "F31", "Q"])
def test_chart_of_a_held_basis_matches_the_chart_computed_afresh(field):
    # mu read off a held basis at the last vertex, with no chart, must be
    # the mu of the chart ideal of a bare copy, which computes its own basis
    R = make_ring(["x", "y", "z", "u"], field, "grevlex")
    P = RationalPoint.projective(R, [0, 0, 0, 1])
    rng = random.Random(f"held chart {field}")
    held = []
    for _ in range(4):
        I, J = (Ideal(R, _vertex_forms(R, rng, 2)) for _ in range(2))
        held.append(ideal_intersect(I, J))
        held.append(Ideal.from_groebner(Ideal(R, _vertex_forms(R, rng, 3)).groebner()))
    for U in held:
        bare = Ideal(R, U.gens)
        assert U._gb is not None
        chart = translate_to_origin(bare, P)
        assert local_mu(U, P) == local_mu(chart, _origin(chart.ring))
        assert local_ci_test(U, P).as_dict() == local_ci_test(bare, P).as_dict()


def test_chart_of_a_held_basis_is_re_reduced():
    # (a,b,c) cap (d,e) = (ad, ae, bd, be, cd, ce): at (0:0:0:0:1), ae
    # becomes a, which divides ad, so three of the six elements remain in
    # the chart's basis; read off the six-element basis, a generating set
    # that is not minimal there, mu is the same 3
    R = make_ring(["a", "b", "c", "d", "e"], "F31", "grevlex")
    a, b, c, d, e = R.gens()
    U = ideal_intersect(Ideal(R, [a, b, c]), Ideal(R, [d, e]))
    P = RationalPoint.projective(R, [0, 0, 0, 0, 1])
    J = translate_to_origin(U, P)
    assert len(U.groebner()) == 6
    assert [str(g) for g in J.groebner()] == ["c", "b", "a"]
    assert local_mu(U, P) == 3
    assert local_mu(J, _origin(J.ring)) == 3


def test_chart_of_a_held_basis_keeps_the_generators(monkeypatch):
    # (xz + y^2, xy) has a 3-element basis; its chart keeps the two
    # generators, so the complete-intersection shortcut still fires and no
    # Artinian reduction runs
    from liaison import localrings

    R = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    x, y, z, u = R.gens()
    I = Ideal(R, [x * z + y**2, x * y])
    assert len(I.groebner()) == 3
    P = RationalPoint.projective(R, [0, 0, 0, 1])
    J = translate_to_origin(I, P)
    assert len(J.gens) == 2
    assert is_graded_complete_intersection(J)

    def no_reduction(*args, **kwargs):
        raise AssertionError("artinian_reduce called")

    monkeypatch.setattr(localrings, "artinian_reduce", no_reduction)
    report = local_ci_test(I, P)
    assert (report.mu, report.codim, report.lci) == (2, 2, True)
    assert (report.length, report.socle_dim, report.gorenstein) == (4, 1, True)


def test_local_mu_examples(A3):
    x, y, z = A3.gens()
    origin = _origin(A3)
    assert local_mu(Ideal(A3, [x, y]), origin) == 2
    assert local_mu(Ideal(A3, [x, y, x + y]), origin) == 2
    # (x) meet (x - 1, y): two generators globally, one at the origin
    assert local_mu(Ideal(A3, [x**2 - x, x * y]), origin) == 1


def test_local_mu_monomial_oracle():
    rng = random.Random(51)
    R = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    for _ in range(25):
        I = random_monomial_ideal(R, rng)
        minimal = minimal_monomial_generators([g.leading_monomial() for g in I.gens])
        assert local_mu(I, _origin(R)) == len(minimal)


def test_local_mu_redundant_generators_invariant(A3):
    x, y, z = A3.gens()
    base = Ideal(A3, [x**2 - y, y * z])
    padded = Ideal(A3, [x**2 - y, y * z, (x**2 - y) * z, y * z * (1 + x)])
    assert local_mu(base, _origin(A3)) == local_mu(padded, _origin(A3))


def test_local_mu_coordinate_change_invariant(A3):
    rng = random.Random(53)
    x, y, z = A3.gens()
    change = {"x": x + 2 * y, "y": y - z, "z": z + x}  # invertible, fixes the origin
    for _ in range(10):
        gens = []
        for _ in range(rng.randint(1, 3)):
            f = Polynomial.zero(A3)
            for g in (x, y, z, x * y, y * z, x**2):
                if rng.random() < 0.4:
                    f = f + g.scale(rng.randint(1, 3))
            if not f.is_zero():
                gens.append(f)
        if not gens:
            continue
        I = Ideal(A3, gens)
        J = Ideal(A3, [substitute(g, change) for g in gens])
        assert local_mu(I, _origin(A3)) == local_mu(J, _origin(A3))



def test_local_mu_ignores_units_and_distant_components():
    # mu is a local count: multiplying a generator by a unit at the origin,
    # or intersecting with a component that misses the origin, keeps it
    rng = random.Random(57)
    R = make_ring(["x", "y", "z"], "F31", "grevlex")
    x, y, z = R.gens()
    unit = R.one() + x - 2 * y * z
    away = Ideal(R, [x - 1, y - 2, z + 3])
    for _ in range(8):
        I = random_monomial_ideal(R, rng, max_gens=4, max_exp=2)
        origin = _origin(R)
        mu = local_mu(I, origin)
        assert local_mu(Ideal(R, [g * unit for g in I.gens]), origin) == mu
        assert local_mu(ideal_intersect(I, away), origin) == mu

def test_local_mu_complete_intersection(A3):
    x, y, z = A3.gens()
    # independent linear parts at the origin
    assert local_mu(Ideal(A3, [x + x * y, y + z**2, z + x * z]), _origin(A3)) == 3


def _origin(R):
    return RationalPoint.affine(R, [0] * R.nvars)


def test_local_mu_needs_origin(A3):
    x, *_ = A3.gens()
    with pytest.raises(ValueError, match=r"point \(0,0,0\) is not on the zero set of the ideal"):
        local_mu(Ideal(A3, [x - 1]), _origin(A3))


def _random_ideal_through(R, point, rng):
    """One to four random polynomials vanishing at a rational point: an
    affine point's shifted linear forms times another or 1, or a projective
    point's 2x2 minors times a form of degree 0 or 1."""
    x, c = R.gens(), point.coordinates
    if point.is_affine:
        lines = [x[i] - Polynomial.constant(R, c[i]) for i in range(R.nvars)]
    else:
        lines = [x[i].scale(c[j]) - x[j].scale(c[i]) for i, j in itertools.combinations(range(R.nvars), 2)]
        lines = [m for m in lines if not m.is_zero()]
    sample = R.field.random_sample()
    gens = []
    for _ in range(rng.randint(1, 4)):
        if point.is_affine:
            factors = [*lines, R.one()]
        else:
            factors = [random_form_dense(R, rng.randint(0, 1), rng)]
        terms = [rng.choice(lines) * rng.choice(factors) for _ in range(rng.randint(1, 2))]
        gens.append(sum((t.scale(rng.choice(sample)) for t in terms), Polynomial.zero(R)))
    return Ideal(R, gens)


@pytest.mark.parametrize("field", ["F31", "F5", "Q"])
def test_local_mu_at_a_point_matches_its_chart(field):
    # mu read off I's own basis at a rational point, with no chart, is the
    # chart ideal's mu at the origin: at projective points off the vertices,
    # in several charts, where the leading monomials' values m_i(p) enter
    # the syzygy rows, and at affine points of non-homogeneous ideals
    rng = random.Random(f"mu at a point {field}")
    mus, charts, inhomogeneous = set(), set(), 0
    for names in (["x", "y", "z"], ["x", "y", "z", "u"]):
        R = make_ring(names, field, "grevlex")
        zero, one, sample = R.field.zero, R.field.one, R.field.random_sample()[:4]
        for k in range(20):
            coords = [rng.choice([zero, *sample]) for _ in range(R.nvars)]
            if k % 2:
                point = RationalPoint.affine(R, coords)
            else:
                # last nonzero coordinate 1 in chart c, another one nonzero
                c = 1 + k // 2 % (R.nvars - 1)
                coords[c + 1 :] = [zero] * (R.nvars - c - 1)
                coords[c], coords[rng.randrange(c)] = one, rng.choice(sample)
                point = RationalPoint.projective(R, coords)
                charts.add((R.nvars, point.chart))
            I = _random_ideal_through(R, point, rng)
            inhomogeneous += not I.is_homogeneous()
            mu = local_mu(I, point)
            chart = translate_to_origin(I, point)
            assert mu == local_mu(chart, _origin(chart.ring)), (field, point, I)
            mus.add(mu)
    assert mus >= {1, 2, 3} and len(charts) == 5 and inhomogeneous > 5
    # the zero ideal: its empty basis leaves no generator at any point
    R = make_ring(["x", "y", "z", "u"], field, "grevlex")
    for point in (RationalPoint.projective(R, [1, 2, 0, 1]), RationalPoint.affine(R, [1, 2, 0, 1])):
        chart = translate_to_origin(Ideal.zero(R), point)
        assert local_mu(Ideal.zero(R), point) == local_mu(chart, _origin(chart.ring)) == 0
    # the point's errors, _check_point's, which translate_to_origin raises
    # too: off the zero set first, then a projective point with a
    # non-homogeneous ideal
    x, y, z, u = R.gens()
    P = RationalPoint.projective(R, [1, 2, 0, 1])
    cases = (
        (Ideal(R, [x + u]), f"point {P} is not on the zero set of the ideal"),
        (Ideal(R, [x + u**2]), f"point {P} is not on the zero set of the ideal"),
        (Ideal(R, [x - u**2, z]), f"projective point {P} needs a homogeneous ideal"),
    )
    for I, message in cases:
        with pytest.raises(ValueError) as mu_error:
            local_mu(I, P)
        with pytest.raises(ValueError) as chart_error:
            translate_to_origin(I, P)
        assert str(mu_error.value) == str(chart_error.value) == message


def _mu_by_normal_forms(I):
    """Reference for local_mu: the rank over k of the generators' normal
    forms modulo a Groebner basis of m*I, built from the products v*g."""
    field = I.ring.field
    if not I.gens:
        return 0
    mI = buchberger(list(dict.fromkeys(v * g for v in I.ring.gens() for g in I.gens)))
    forms = [normal_form(g, mI).terms for g in I.gens]
    monomials = sorted({e for f in forms for e in f})
    return rank([[f.get(e, field.zero) for e in monomials] for f in forms], field)


def _random_ideal_through_origin(R, rng):
    """One to four random polynomials of degree at most 2, no constant term."""
    monomials = [
        Polynomial.monomial(R, e)
        for e in itertools.product(range(3), repeat=R.nvars)
        if 0 < sum(e) <= 2
    ]
    sample = [c for c in R.field.random_sample() if c != R.field.zero]
    gens = []
    for _ in range(rng.randint(1, 4)):
        terms = rng.sample(monomials, rng.randint(1, 3))
        gens.append(sum((m.scale(rng.choice(sample)) for m in terms), Polynomial.zero(R)))
    return Ideal(R, gens)


def test_local_mu_matches_normal_forms_modulo_m_times_i():
    # the syzygy count agrees with the rank of normal forms modulo m*I
    # on meeting unions at the meeting point and on affine ideals through
    # the origin, also after padding, a unit multiple or a distant component
    rng = random.Random(89)
    R = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    meeting = RationalPoint.projective(R, [0, 0, 0, 1])
    mus = set()
    for k in range(16):
        L1, L2 = random_meeting_instance(R, ["a", "b_hold", "b_violate", "one_sided"][k % 4], rng)
        U = ideal_intersect(double_line_ideal(L1), double_line_ideal(L2))
        J = translate_to_origin(U, meeting)
        mu = local_mu(J, _origin(J.ring))
        assert mu == _mu_by_normal_forms(J), U
        mus.add(mu)
    assert mus == {2, 3}
    for field in ("F31", "F5", "Q"):
        for names in (["x", "y"], ["x", "y", "z"], ["x", "y", "z", "u"]):
            R = make_ring(names, field, "grevlex")
            x, last = R.gens()[0], R.gens()[-1]
            away = Ideal(R, [v - 1 for v in R.gens()])
            variants = [Ideal.zero(R), Ideal(R, [x**2 + x * last])]
            for _ in range(4):
                I = _random_ideal_through_origin(R, rng)
                g, h = I.gens[0], I.gens[-1]
                variants += [
                    I,
                    Ideal(R, [*I.gens, g * last + h, g + h]),
                    Ideal(R, [f * (R.one() + x) for f in I.gens]),
                ]
            variants.append(ideal_intersect(I, away))
            for J in variants:
                mu = local_mu(J, _origin(R))
                assert mu == _mu_by_normal_forms(J), (field, J)
                mus.add(mu)
    assert mus >= {0, 1, 2, 3}


def test_local_mu_takes_one_basis_and_no_normal_form(monkeypatch):
    # a meeting union holds its basis from the intersection: mu at the
    # meeting point reads it and computes none.  The same union without a
    # held basis takes one, of its own generators.
    from liaison import groebner, ideals, localrings

    R = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    x, y, z, u = R.gens()
    I1 = Ideal(R, [z * x + u * y, x**2, x * y, y**2])
    I2 = Ideal(R, [y * x + u * z, x**2, x * z, z**2])
    U = ideal_intersect(I1, I2)
    P = RationalPoint.projective(R, [0, 0, 0, 1])
    bare = Ideal(R, U.gens)

    def no_normal_form(*args):
        raise AssertionError("normal_form called")

    for module in (groebner, ideals, localrings):
        monkeypatch.setattr(module, "normal_form", no_normal_form)
    calls = _count_bases(monkeypatch)
    assert local_mu(U, P) == 2
    assert calls == []
    assert local_mu(bare, P) == 2
    assert calls == [list(bare.gens)]
    assert bare.groebner() == U.groebner()


def test_local_ci_test_reads_mu_off_the_held_basis(monkeypatch):
    # mu at the meeting point is read off the union's own basis, as the
    # oracle reads it: a held U takes the chart's Lazard basis, one draw and
    # the cut, and a bare copy takes its own basis besides
    R = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    x, y, z, u = R.gens()
    U = ideal_intersect(
        Ideal(R, [z * x + u * y, x**2, x * y, y**2]), Ideal(R, [y * x + u * z, x**2, x * z, z**2])
    )
    P = RationalPoint.projective(R, [0, 0, 0, 1])
    bare = Ideal(R, U.gens)
    calls = _count_bases(monkeypatch)
    report = local_ci_test(U, P)
    assert (report.mu, report.codim, report.lci, report.length, report.socle_dim) == (2, 2, True, 4, 1)
    assert len(calls) == 3 and len(_block1_bases(calls)) == 1
    calls.clear()
    assert local_ci_test(bare, P).as_dict() == report.as_dict()
    assert len(calls) == 4 and calls[0] == list(bare.gens)


def test_meeting_oracle_takes_one_basis(monkeypatch):
    # the intersection's: the lci certificates along the supports are
    # Euclid gcds of the pencil forms, and mu at the meeting point is read
    # off the intersection's basis
    from liaison import doublelines

    assert not hasattr(doublelines, "buchberger")
    R = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    rng = random.Random(2107)
    pairs = [random_meeting_instance(R, case, rng) for case in ("a", "b_hold", "b_violate", "one_sided")]
    calls = _count_bases(monkeypatch)
    for L1, L2 in pairs:
        calls.clear()
        _, (report,) = oracle_lal(L1, L2)
        assert report.point.coordinates == (0, 0, 0, 1)
        assert len(calls) == 1 and calls[0][0].ring.order == MonomialOrder("block", 1)


def test_artinian_invariants_skip_components_away_from_origin():
    # x(x-1) and x^2(x-1): only the origin component (x), resp. (x^2), counts
    R = make_ring(["x"], "Q", "lex")
    x = R.variable("x")
    assert local_gorenstein(Ideal(R, [x * (x - 1)])) == (1, 1, True)
    assert local_gorenstein(Ideal(R, [x**2 * (x - 1)])) == (2, 1, True)
    assert local_gorenstein(Ideal(R, [x**3])) == (3, 1, True)
    # x^4 (x - 1)^2: the origin's factor k[x]/(x^4) is 4 of the 6 dimensions
    assert local_gorenstein(Ideal(R, [x**4 * (x - 1) ** 2])) == (4, 1, True)


def test_artinian_invariants_reject_bad_input(A3, monkeypatch):
    # an ideal that misses the origin is refused before any basis is taken;
    # the input need not be zero-dimensional: (x) is a complete intersection
    x, y, z = A3.gens()
    calls = _count_bases(monkeypatch)
    with pytest.raises(ValueError, match=r"point \(0,0,0\) is not on the zero set of the ideal"):
        local_gorenstein(Ideal(A3, [x - 1, y, z]))
    assert calls == []
    assert local_gorenstein(Ideal(A3, [x])) == (1, 1, True)


def test_artinian_invariants_examples():
    R = make_ring(["x", "y"], "Q", "grevlex")
    x, y = R.gens()
    assert socle_dimensions(Ideal(R, [x**2, y**2]).groebner(), ()) == (4, 1)
    square = Ideal(R, [x**2, x * y, y**2])
    assert socle_dimensions(square.groebner(), ()) == (3, 2)
    # no complete intersection: local_gorenstein reads the socle off its cut
    assert local_gorenstein(square) == (3, 2, False)
    Rf = make_ring(["x1", "x2"], "Q", "lex")
    x1, x2 = Rf.gens()
    assert socle_dimensions(Ideal(Rf, [x1**2 + x1 * x2, x2**2]).groebner(), ()) == (4, 1)


def test_artinian_length_order_independent():
    rng = random.Random(57)
    R_lex = make_ring(["x", "y"], "F31", "lex")
    R_grev = make_ring(["x", "y"], "F31", "grevlex")
    for _ in range(10):
        exps = [(rng.randint(1, 3), 0), (0, rng.randint(1, 3)), (rng.randint(0, 2), rng.randint(0, 2))]
        lengths = []
        for R in (R_lex, R_grev):
            gens = [Polynomial.monomial(R, e) for e in exps if sum(e) > 0]
            lengths.append(socle_dimensions(Ideal(R, gens).groebner(), ())[0])
        assert lengths[0] == lengths[1]


def test_artinian_reduce_two_cuts():
    R = make_ring(["x", "y", "z", "u"], "Q", "grevlex")
    x, y, z, u = R.gens()
    Q, forms = artinian_reduce(Ideal(R, [x**2, y**2]), seed=5)
    assert Q is not None and len(forms) == 2
    assert _socle_invariants(Q)[2] is True


def test_gorenstein_verdict_independent_of_slice():
    R = make_ring(["x", "y", "z"], "Q", "grevlex")
    x, y, z = R.gens()
    for I, expected in (
        (Ideal(R, [x**2, y**2]), True),
        (Ideal(R, [x**2, x * y, y**2]), False),
    ):
        verdicts = []
        for seed in (1, 2, 3):
            Q, _ = artinian_reduce(I, seed=seed)
            assert Q is not None
            verdicts.append(_socle_invariants(Q)[2])
        assert all(v == expected for v in verdicts)


def test_complete_intersection_verdict_agrees_with_artinian_reduction():
    # on every ideal of seeded CI-linked triples that the generator count
    # calls a complete intersection, the closed-form verdict equals the one
    # read off a certified Artinian reduction; the zero ideal included
    rng = random.Random(83)
    fired = 0
    for field in ("F31", "F5", "Q"):
        for names in (["x", "y"], ["x", "y", "z"], ["x", "y", "z", "u"]):
            R = make_ring(names, field, "grevlex")
            ideals = [Ideal.zero(R)]
            while len(ideals) < 30:
                triple = random_ci_linked_triple(R, rng, max_degree=2)
                if triple is not None:
                    ideals += triple.ideals()
            for seed, I in enumerate(ideals):
                if not is_graded_complete_intersection(I):
                    continue
                fired += 1
                Q, _forms = artinian_reduce(I, seed=seed)
                assert Q is not None, (field, I)
                assert local_gorenstein(I, seed=seed) == _socle_invariants(Q), (field, I)
    assert fired >= 200, fired


def test_complete_intersection_predicate_needs_an_exact_generator_count():
    R = make_ring(["x", "y", "z", "u"], "Q", "grevlex")
    x, y, z, u = R.gens()
    A = make_ring(["x", "y"], "Q", "grevlex")
    a, b = A.gens()
    for I in (
        Ideal(R, [x**2, x * y, y**2]),
        Ideal(R, [x * z, x * u, y * z, y * u]),  # skew lines
        Ideal(R, [x**2, y**2, x**2 + y**2]),  # a CI with a redundant generator
        Ideal(R, [R.one()]),
        Ideal(A, [a - b**2]),  # a CI, but a chart ideal
    ):
        assert not is_graded_complete_intersection(I), I
    assert is_graded_complete_intersection(Ideal.zero(R))
    assert is_graded_complete_intersection(Ideal(R, [x**2, y**2]))


def test_local_ci_union_fixture():
    R = make_ring(["x", "y", "z", "u"], "Q", "grevlex")
    x, y, z, u = R.gens()
    I1 = Ideal(R, [z * x + u * y, x**2, x * y, y**2])
    I2 = Ideal(R, [y * x + u * z, x**2, x * z, z**2])
    U = ideal_intersect(I1, I2)
    p = RationalPoint.projective(R, [0, 0, 0, 1])
    report = local_ci_test(U, p, seed=3)
    assert report.mu == 2 and report.lci and report.gorenstein

    # condition-(b)-violating union fails the test, with mu > 2
    J1 = Ideal(R, [2 * u * x + z * y, x**2, x * y, y**2])
    J2 = Ideal(R, [u * x + y * z, x**2, x * z, z**2])
    V = ideal_intersect(J1, J2)
    bad = local_ci_test(V, p, seed=3)
    assert bad.mu > 2 and not bad.lci


def test_inconclusive_is_reported_not_guessed():
    # over F3 the zero set of x*y*(x+y)*(x+2y) * (x, y) contains every line
    # through the origin of the chart, so no linear cut is zero-dimensional,
    # and two generators are no complete intersection: the Gorenstein
    # verdict is inconclusive, while the local dimension 1 needs no cut, so
    # mu = 2 > codim = 1 is a definite lci False
    R = make_ring(["x", "y", "z"], "F3", "grevlex")
    x, y, z = R.gens()
    I = Ideal(R, [x**4 * y - x**2 * y**3, x**3 * y**2 - x * y**4])
    p = RationalPoint.projective(R, [0, 0, 1])
    report = local_ci_test(I, p, seed=0)
    assert (report.mu, report.codim, report.lci, report.gorenstein) == (2, 1, False, None)
    assert "inconclusive" in report.note


def test_slices_over_f3_may_have_a_zero_coefficient():
    # the cone over the F3-points (0:0:1), (1:1:0), (1:2:0) is a reduced
    # curve, Cohen-Macaulay of degree 3 and type 2 (three points of P^2
    # off a line).  A form a*x + b*y + c*z is a parameter iff it misses the
    # three points: c != 0 and a != b, a != -b.  Nonzero a, b in F3 are
    # always equal or opposite, so only a form with a zero coefficient, such
    # as y + z, is one: a pool without 0 spends the budget at every seed
    R = make_ring(["x", "y", "z"], "F3", "grevlex")
    x, y, z = R.gens()
    I = Ideal(R, [y * z, x * z, x**2 + 2 * y**2])
    assert hilbert_data(I).degree == 3
    assert is_zero_dimensional(ideal_sum(I, Ideal(R, [y + z])).groebner())
    for seed in range(6):
        assert local_gorenstein(I, seed=seed) == (3, 2, False), seed


def test_slice_draw_over_a_large_prime_holds_no_list_of_the_field():
    # the slice coefficients range over all of F_p: drawn from a list of p
    # integers, the call below peaked at ~46 MiB, and a prime near 2^31
    # would ask for ~2^31 of them
    R = make_ring(["x", "y", "z"], "F1000003", "grevlex")
    x, y, z = R.gens()
    tracemalloc.start()
    try:
        invariants = local_gorenstein(Ideal(R, [x**2, x * y, y**2]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert invariants == (3, 2, False)
    assert peak < 4 * 2**20, peak


def test_local_ci_test_reads_graded_complete_intersection_off_hilbert_data(monkeypatch):
    # the hypersurface x*y*(x+y)*(x+2y) over F3 admits no certified slice,
    # but its chart ideal at (0:0:1) is a graded complete intersection:
    # lci and gorenstein agree with local_gorenstein, with no reduction
    from liaison import localrings

    def no_reduction(*args, **kwargs):
        raise AssertionError("artinian_reduce called")

    monkeypatch.setattr(localrings, "artinian_reduce", no_reduction)
    R = make_ring(["x", "y", "z"], "F3", "grevlex")
    x, y, z = R.gens()
    p = RationalPoint.projective(R, [0, 0, 1])
    report = local_ci_test(Ideal(R, [x**3 * y - x * y**3]), p, seed=0)
    assert (report.mu, report.codim, report.lci) == (1, 1, True)
    assert (report.length, report.socle_dim, report.gorenstein, report.note) == (4, 1, True, "")
    # the cone point of a complete intersection of two quadrics in P^3
    S = make_ring(["x", "y", "z", "u"], "Q", "grevlex")
    x, y, z, u = S.gens()
    I = Ideal(S, [x**2 - y * z, y**2 - x * u])
    report = local_ci_test(I, RationalPoint.affine(S, [0, 0, 0, 0]), seed=0)
    assert (report.mu, report.codim, report.lci) == (2, 2, True)
    assert (report.length, report.socle_dim, report.gorenstein) == (4, 1, True)


def test_lci_implies_gorenstein_on_tested_instances():
    R = make_ring(["x", "y", "z"], "Q", "grevlex")
    x, y, z = R.gens()
    p = RationalPoint.affine(R, [0, 0, 0])
    verdicts = []
    for gens in ([x, y], [x * y, x**2, y**2]):
        report = local_ci_test(Ideal(R, gens), p, seed=2)
        verdicts.append(report.lci)
        if report.lci:
            assert report.gorenstein is True
    assert verdicts == [True, False]


@pytest.mark.parametrize("field", ["F31", "F5", "Q"])
def test_local_ci_test_answers_at_affine_points(field):
    # (mu, codim, lci, length, socle_dim, gorenstein) of ideals that are not
    # all homogeneous, at affine points, each checked by hand
    R = make_ring(["x", "y", "z"], field, "grevlex")
    x, y, z = R.gens()
    origin = RationalPoint.affine(R, [0, 0, 0])
    smooth_curve = (2, 2, True, 1, 1, True)
    not_gorenstein = (3, 2, False, 3, 2, False)
    for gens, point, expected in (
        # linear parts x and y are independent: a smooth curve, a regular
        # local ring of dimension 1 cut out by two minimal generators
        ([x + y * z, y + x**2], origin, smooth_curve),
        # a principal ideal with linear part x: a smooth surface
        ([x + y**2], origin, (1, 1, True, 1, 1, True)),
        # (x, y)^2: three independent quadrics around the z-axis; R/I is
        # free of rank 3 over k[z], so Cohen-Macaulay of multiplicity 3, and
        # the cut by z, k[x, y]/(x, y)^2, has socle (x, y): type 2
        ([x**2, x * y, y**2], origin, not_gorenstein),
        # the three coordinate axes: three independent quadrics, a reduced
        # curve, so Cohen-Macaulay, of multiplicity 3, whose generic cut has
        # Hilbert function 1, 2, so its socle is the maximal ideal: type 2
        ([x * y, x * z, y * z], origin, not_gorenstein),
        # (x) cap (x - 1, y): at the origin x - 1 is a unit, so the ideal
        # is (x) there; at (1, 0, 5) x is a unit, so it is the line
        # (x - 1, y); the component away from the point does not count
        ([x * (x - 1), x * y], origin, (1, 1, True, 1, 1, True)),
        ([x * (x - 1), x * y], RationalPoint.affine(R, [1, 0, 5]), smooth_curve),
    ):
        report = local_ci_test(Ideal(R, gens), point)
        got = (report.mu, report.codim, report.lci)
        got += (report.length, report.socle_dim, report.gorenstein)
        assert got == expected, (gens, point)
        assert report.note == ""


@pytest.mark.parametrize("seed", [0, 1013])
@pytest.mark.parametrize("field", ["F31", "F5", "Q"])
def test_local_ci_test_at_a_projective_point_matches_its_moved_chart(field, seed):
    # a projective point of a homogeneous ideal and the affine point q of
    # its chart, dehomogenized and moved so that the point goes to a seeded
    # q, have the same local ring: the whole report agrees.  Inputs are the
    # union U and the first line I1 of a meeting pair of each bucket, at the
    # meeting point (0:0:0:1) and at further points on the supports, in
    # charts 1, 2, 3.
    R = make_ring(["x", "y", "z", "u"], field, "grevlex")
    rng = random.Random(f"moved chart {field} {seed}")
    sample = R.field.random_sample()
    keys = ("mu", "codim", "lci", "length", "socle_dim", "gorenstein")
    outcomes = set()
    for case in ("a", "b_hold", "b_violate", "one_sided"):
        L1, L2 = random_meeting_instance(R, case, rng)
        I1 = double_line_ideal(L1)
        U = ideal_intersect(I1, double_line_ideal(L2))
        c = rng.choice(sample)
        first = [[0, 0, 0, 1], [0, 0, c, 1], [0, 0, 1, 0]]
        for I, points in ((U, [*first, [0, c, 0, 1], [0, 1, 0, 0]]), (I1, first)):
            for coords in points:
                point = RationalPoint.projective(R, coords)
                chart = _substitution_translate(I, point)
                q = [rng.choice(sample) for _ in range(3)]
                away = RationalPoint.affine(chart.ring, [R.field.neg(t) for t in q])
                J = _substitution_translate(chart, away)
                expected = local_ci_test(I, point).as_dict()
                got = local_ci_test(J, RationalPoint.affine(J.ring, q)).as_dict()
                assert [got[k] for k in keys] == [expected[k] for k in keys], (case, I, point, q)
                outcomes.add((expected["lci"], expected["gorenstein"]))
    assert {(True, True), (False, False)} <= outcomes, outcomes


def test_lci_codim_is_local_on_mixed_dimensions():
    # a line and a disjoint plane in P^4: at a point of the line the local
    # codimension is 3, not the global 2 of the plane
    R = make_ring(["a", "b", "c", "d", "e"], "F31", "grevlex")
    a, b, c, d, e = R.gens()
    I = ideal_intersect(Ideal(R, [a, b, c]), Ideal(R, [d, e]))
    report = local_ci_test(I, RationalPoint.projective(R, [0, 0, 0, 0, 1]))
    assert (report.mu, report.codim, report.lci, report.gorenstein) == (3, 3, True, True)


def test_lci_beside_a_distant_component_is_decided(P3):
    # the plane x = 0 and the line y = z = 0: at (1:0:0:1), on the line only,
    # the chart keeps the plane, which the local leading ideal does not see:
    # locally (y, z), codim 2 = mu, a Gorenstein point of length 1
    x, y, z, u = P3.gens()
    report = local_ci_test(Ideal(P3, [x * y, x * z]), RationalPoint.projective(P3, [1, 0, 0, 1]))
    assert (report.mu, report.codim, report.lci, report.gorenstein) == (2, 2, True, True)
    assert (report.length, report.socle_dim, report.note) == (1, 1, "")


def test_refuted_cohen_macaulayness_is_a_verdict(P3):
    # the skew lines (x, y) cap (z, u): two cuts leave length 3 against
    # degree 2, so R/I is not Cohen-Macaulay and so not Gorenstein, at the
    # cone origin and at the vertex of two planes meeting in a point of P^4
    x, y, z, u = P3.gens()
    I = Ideal(P3, [x * z, x * u, y * z, y * u])
    Q, forms = artinian_reduce(I, seed=0)
    assert Q is False and len(forms) == 2
    cut = ideal_sum(I, Ideal(P3, forms)).groebner()
    assert (len(standard_monomials(cut)), hilbert_data(I).degree) == (3, 2)
    for seed in range(4):
        assert local_gorenstein(I, seed=seed) == (None, None, False)
    R = make_ring(["a", "b", "c", "d", "e"], "F31", "grevlex")
    a, b, c, d, e = R.gens()
    planes = Ideal(R, [a * c, a * d, b * c, b * d])
    for J, point in (
        (I, RationalPoint.affine(P3, [0, 0, 0, 0])),
        (planes, RationalPoint.projective(R, [0, 0, 0, 0, 1])),
    ):
        report = local_ci_test(J, point, seed=0)
        assert (report.mu, report.codim, report.lci) == (4, 2, False)
        assert (report.length, report.socle_dim, report.gorenstein) == (None, None, False)
        assert "not Cohen-Macaulay" in report.note


def _count_bases(monkeypatch):
    from liaison import ideals, localrings

    calls = []

    def counted(gens, *args, **kwargs):
        calls.append(gens)
        return buchberger(gens, *args, **kwargs)

    def counted_elimination(gens, basis=()):
        calls.append([*basis, *gens])
        return elimination_basis(gens, basis)

    # localrings takes every basis through ideals (Ideal.groebner and the
    # ideal operations, which eliminate by elimination_basis), so counting
    # there counts them all
    assert not hasattr(localrings, "buchberger")
    assert not hasattr(localrings, "elimination_basis")
    monkeypatch.setattr(ideals, "buchberger", counted)
    monkeypatch.setattr(ideals, "elimination_basis", counted_elimination)
    return calls


def _block1_bases(calls):
    """The counted bases taken on a block(1) ring: Lazard bases, when no
    intersection or elimination runs."""
    return [gens for gens in calls if gens[0].ring.order == MonomialOrder("block", 1)]


def test_artinian_invariants_take_no_basis_beyond_the_reduction(monkeypatch):
    R = make_ring(["x", "y", "z"], "F31", "grevlex")
    x, y, z = R.gens()
    graded = Ideal(R, [x**2, y**2, z**2 - x * y])
    chart = ideal_intersect(Ideal(R, [x**2, y, z**3]), Ideal(R, [x - 1, y - 2, z]))
    for Q in (graded, chart):
        Q.groebner()
    calls = _count_bases(monkeypatch)
    assert local_gorenstein(graded) == (8, 1, True)
    assert calls == []
    # the reduction's Lazard basis and the basis of its cut, which drops
    # the component at (1, 2, 0) and serves the socle
    assert local_gorenstein(chart) == (6, 1, True)
    assert len(calls) == 2 and len(_block1_bases(calls)) == 1
    # artinian_reduce's chart output is its own origin component: its socle
    # is read off the basis it holds
    session = parse_session((FIXTURES / "double_lines.session").read_text())
    certified, _forms = artinian_reduce(translate_to_origin(session.ideals["I1"], session.points["S"]))
    certified.groebner()
    calls.clear()
    assert not certified.is_homogeneous()
    assert socle_dimensions(certified.groebner(), ()) == (2, 1)
    assert calls == []


def test_lci_with_no_slice_drawn_reads_codim_off_the_local_dimension(monkeypatch):
    # with no tuple of forms drawn, the codimension still comes from L(J):
    # (xy, xz) is the plane x = 0 and the line y = z = 0, and (1:0:0:1) lies
    # on the line only
    from liaison import localrings

    R = make_ring(["x", "y", "z", "u"], "Q", "grevlex")
    x, y, z, u = R.gens()
    monkeypatch.setattr(localrings, "SLICE_BUDGET", 0)
    calls = _count_bases(monkeypatch)
    report = local_ci_test(Ideal(R, [x * y, x * z]), RationalPoint.projective(R, (1, 0, 0, 1)))
    assert (report.mu, report.codim, report.lci, report.gorenstein) == (2, 2, True, None)
    assert report.note == "inconclusive Gorenstein verdict: no Artinian reduction (slice budget spent)"
    # the reduction and the codimension read the one Lazard basis the chart ideal holds
    assert len(_block1_bases(calls)) == 1


def test_regularity_certificate_edges():
    R = make_ring(["x", "y", "z"], "F31", "grevlex")
    x, y, z = R.gens()
    cases = [
        (x, Ideal(R, [x * y]), False),
        # (x*y, x*z) = (x) meet (y, z), and y^2 + y*z lies in (y, z)
        (y**2 + y * z, Ideal(R, [x * y, x * z]), False),
        (x**2 + y * z, Ideal(R, [x * y, x * z]), True),
        (x, Ideal.zero(R), True),
        (x * y, Ideal.zero(R), True),
        (x, Ideal(R, [R.one()]), True),
        (z**2, Ideal(R, [x**2, y**2]), True),
    ]
    for h, I, regular in cases:
        assert is_regular(h, I) is regular
    with pytest.raises(ValueError):
        is_regular(Polynomial.zero(R), Ideal(R, [x]))


def test_regularity_tests_only_the_colon_against_the_ideal(monkeypatch):
    # I lies in (I : h), so is_regular tests each generator of the colon
    # for membership in I, once, and never one of I's own generators
    from liaison import ideals, linkage

    colons, tested = [], []

    def recording_colon(I, J):
        colons.append(ideal_colon(I, J))
        return colons[-1]

    def recording_normal_form(f, basis):
        tested.append(f)
        return normal_form(f, basis)

    monkeypatch.setattr(linkage, "ideal_colon", recording_colon)
    monkeypatch.setattr(ideals, "normal_form", recording_normal_form)
    for field in ("F31", "Q"):
        R = make_ring(["x", "y", "z"], field, "grevlex")
        x, y, z = R.gens()
        for gens, h in (
            ([x**2 + y**2, x**2 - y**2], z),
            ([2 * x * y + 2 * z**2, x * z - y**2 + x * y + z**2], x + y + z),
            ([2 * x**2 + 2 * y * z - 2 * x, 3 * y**2 - 3 * z], y + 1),
        ):
            I = Ideal(R, gens)
            colons.clear()
            tested.clear()
            assert I._gb is None
            assert is_regular(h, I)
            assert tested == list(colons[0].gens), (field, gens)
            assert not any(g in tested for g in I.gens), (field, gens)


def _socle_invariants(Q):
    """(length, socle_dim, gorenstein) read off the basis of Q, an
    Artinian reduction's output, which is its own origin component."""
    length, socle_dim = socle_dimensions(Q.groebner(), ())
    return length, socle_dim, socle_dim == 1


def _origin_component_invariants(I):
    """(length, socle_dim, gorenstein) from the origin component
    I : (I : m^inf), the primary decomposition step the library skips."""
    m = Ideal(I.ring, I.ring.gens())
    Q = ideal_colon(I, saturate(I, m))
    length = len(standard_monomials(Q.groebner()))
    socle_dim = length - len(standard_monomials(ideal_colon(Q, m).groebner()))
    return length, socle_dim, socle_dim == 1


def _reduce_one_cut_at_a_time(I, seed):
    """Reference for artinian_reduce: (cuts, invariants) after cutting by
    linear forms certified regular one at a time by the colon, or None when
    8 draws give no regular form.  The invariants are those of the origin
    component, found by colons, with no code of the reduction."""
    rng = random.Random(seed)
    R = I.ring
    sample = R.field.random_sample()
    current, cuts = I, 0
    while not is_zero_dimensional(current.groebner()):
        for _ in range(8):
            h = sum((v.scale(rng.choice(sample)) for v in R.gens()), Polynomial.zero(R))
            if is_regular(h, current):
                break
        else:
            return None
        current, cuts = ideal_sum(current, Ideal(R, [h])), cuts + 1
    return cuts, _origin_component_invariants(current)


def _random_homogeneous_ideal(R, rng):
    kind = rng.randrange(3)
    if kind == 0:
        return random_monomial_ideal(R, rng, max_gens=3, max_exp=2)
    if kind == 1:
        return Ideal(R, [random_form_dense(R, rng.randint(1, 2), rng) for _ in range(rng.randint(1, 2))])
    # two random linear spaces, or a linear space and a hypersurface section
    A = Ideal(R, [random_form_dense(R, 1, rng) for _ in range(rng.randint(1, R.nvars - 2))])
    B = Ideal(R, [random_form_dense(R, rng.randint(1, 2), rng) for _ in range(2)])
    return ideal_intersect(A, B)


def test_graded_length_certificate_agrees_with_regular_cuts():
    # the one length check on a whole system of parameters gives the same
    # verdict and invariants as cutting by certified-regular forms one at a
    # time, on Cohen-Macaulay and non-Cohen-Macaulay ideals over F31 and Q;
    # where it refutes Cohen-Macaulayness (False) the reference finds no
    # regular sequence either
    rng = random.Random(71)
    for R, count in (
        (make_ring(["x", "y", "z"], "F31", "grevlex"), 14),
        (make_ring(["x", "y", "z", "u"], "F31", "grevlex"), 14),
        (make_ring(["x", "y", "z", "u"], "Q", "grevlex"), 10),
    ):
        outcomes = set()
        for seed in range(count):
            I = _random_homogeneous_ideal(R, rng)
            expected = _reduce_one_cut_at_a_time(I, seed)
            Q, forms = artinian_reduce(I, seed=seed)
            if expected is not None:
                assert len(forms) == expected[0], (R, I)
                expected = expected[1]
            assert (_socle_invariants(Q) if isinstance(Q, Ideal) else None) == expected, (R, I)
            outcomes.add("refuted" if Q is False else expected is not None)
        assert outcomes == {True, "refuted"}, R


def test_graded_reduction_takes_one_basis_beyond_its_input(monkeypatch):
    R = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    x, y, z, u = R.gens()
    I = Ideal(R, [x**2, y * z - x * u])
    I.groebner()
    calls = _count_bases(monkeypatch)
    Q, forms = artinian_reduce(I, seed=5)
    assert Q is not None and len(forms) == 2
    assert len(calls) == 1


def test_chart_reduction_takes_one_lazard_basis(monkeypatch):
    # a chart ideal's Gorenstein verdict takes the Lazard basis of I once,
    # for the reduction, one basis per draw, and one basis of I + (h) +
    # (x_i^(e+1)), which both counts the length and serves
    # the socle
    from liaison import localrings

    R = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    x, y, z, u = R.gens()
    I = Ideal(R, [x**2 + u * z, y**2 - z])
    lazard, draws = [], []

    def counted_lazard(J):
        lazard.append(J)
        return local_leading_ideal(J)

    def counted_draw(gb):
        draws.append(gb)
        return is_zero_dimensional(gb)

    monkeypatch.setattr(localrings, "local_leading_ideal", counted_lazard)
    monkeypatch.setattr(localrings, "is_zero_dimensional", counted_draw)
    calls = _count_bases(monkeypatch)
    assert local_gorenstein(I, seed=5) == (2, 1, True)
    assert lazard == [I] and draws
    assert len(calls) == len(draws) + 2
    assert len(_block1_bases(calls)) == 1


def test_embedded_curve_through_the_origin_is_refuted(monkeypatch):
    # (x^2, xy + xz^2) = (x) cap (x^2, y + z^2): a plane with an embedded
    # curve through the origin, of multiplicity e = 1, not Cohen-Macaulay.
    # Cutting with (x_i^e) = (x, y, z) would read length 1 and certify it;
    # the (x_i^(e+1)) of artinian_reduce keep a length above e
    R = make_ring(["x", "y", "z"], "F31", "grevlex")
    x, y, z = R.gens()
    I = Ideal(R, [x**2, x * y + x * z**2])
    calls = _count_bases(monkeypatch)
    assert hilbert_data(local_leading_ideal(I)[0]).degree == 1
    for seed in range(3):
        assert local_gorenstein(I, seed=seed) == (None, None, False)
    # every verdict reads the Lazard basis I took for the degree above
    assert len(_block1_bases(calls)) == 1


def _count_colons(monkeypatch):
    from liaison import ideals, localrings

    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    # localrings imports no colon, so every one would go through ideals
    assert not hasattr(localrings, "ideal_colon")
    monkeypatch.setattr(ideals, "ideal_colon", counted("ideal_colon", ideals.ideal_colon))
    monkeypatch.setattr(ideals, "saturate", counted("saturate", ideals.saturate))
    return calls


def test_invariants_and_graded_slices_take_no_colon(monkeypatch):
    R = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    x, y, z, u = R.gens()
    graded = Ideal(R, [x**2, y**2])
    distant = ideal_intersect(Ideal(R, [x**2, y, z**2, u]), Ideal(R, [x - 1, y, z, u - 2]))
    calls = _count_colons(monkeypatch)
    assert local_gorenstein(distant) == (4, 1, True)
    Q, forms = artinian_reduce(graded, seed=5)
    assert Q is not None and len(forms) == 2
    assert calls == []
    # a chart ideal is cut the same way, off its local leading ideal
    Q, forms = artinian_reduce(Ideal(R, [x**2 + u * z, y**2 - z]), seed=5)
    assert isinstance(Q, Ideal) and len(forms) == 2
    assert calls == []


def test_isolated_point_beside_a_distant_line():
    # each ideal has local dimension 0 at (0:0:1), while its chart keeps a
    # line away from the origin: the reduction takes no cut, and its Q
    # keeps the origin's component only, so Q is zero-dimensional
    R = make_ring(["x", "y", "u"], "Q", "grevlex")
    x, y, u = R.gens()
    P = RationalPoint.projective(R, [0, 0, 1])
    for local, away, expected in (
        ([x, y], [x - u], (2, 2, True, 1, 1, True)),
        ([x**2, y], [x - u], (2, 2, True, 2, 1, True)),
        ([x**2, x * y, y**2], [y - u], (3, 2, False, 3, 2, False)),
    ):
        I = ideal_intersect(Ideal(R, local), Ideal(R, away))
        report = local_ci_test(I, P)
        assert (report.mu, report.codim, report.lci) == expected[:3], local
        assert (report.length, report.socle_dim, report.gorenstein) == expected[3:], local
        Q, forms = artinian_reduce(translate_to_origin(I, P))
        assert forms == [] and is_zero_dimensional(Q.groebner())


def _vertex_ideal(R, rng):
    """Random forms through the vertex of the last variable, a union of two
    such ideals, or such forms times (x, y)."""
    kind = rng.randrange(3)
    if kind == 0:
        return Ideal(R, _vertex_forms(R, rng, rng.randint(1, 3)))
    if kind == 1:
        return ideal_intersect(*(Ideal(R, _vertex_forms(R, rng, rng.randint(1, 2))) for _ in range(2)))
    x, y = R.gens()[:2]
    return ideal_product(Ideal(R, _vertex_forms(R, rng, rng.randint(1, 2))), Ideal(R, [x, y]))


def _moved_to(I, c, A=None):
    """The image of I, through the vertex (0:...:0:1), under x -> A(x - c*u):
    through (c:1), with the vertex chart moved by A (the identity if None)."""
    R = I.ring
    *xs, u = R.gens()
    A = A or [[int(i == j) for j in range(len(xs))] for i in range(len(xs))]
    shifted = [v - u.scale(ci) for v, ci in zip(xs, c)]
    images = [sum((w.scale(a) for w, a in zip(shifted, row)), Polynomial.zero(R)) for row in A]
    assignment = dict(zip(R.variables, [*images, u]))
    return Ideal(R, [substitute(g, assignment) for g in I.gens])


@pytest.mark.parametrize("field", ["F31", "F5", "Q"])
def test_report_is_the_same_at_the_vertex_and_at_a_moved_point(field):
    # x_i -> x_i - c_i*u moves the vertex to (c:1) and carries the chart
    # ideal along; a linear change of the x_i on top moves the chart by an
    # automorphism fixing the origin: the local report stays the same
    R = make_ring(["x", "y", "z", "u"], field, "grevlex")
    rng = random.Random(f"moved point {field}")
    sample = R.field.random_sample()
    vertex = RationalPoint.projective(R, [0, 0, 0, 1])
    outcomes = set()
    for _ in range(6):
        I = _vertex_ideal(R, rng)
        c = [rng.choice(sample) for _ in range(3)]
        A = [[rng.choice(sample) for _ in range(3)] for _ in range(3)]
        while rank(A, R.field) < 3:
            A = [[rng.choice(sample) for _ in range(3)] for _ in range(3)]
        point = RationalPoint.projective(R, [*c, 1])
        for seed in (0, 1):
            expected = local_ci_test(I, vertex, seed=seed).as_dict()
            del expected["point"]
            for moved in (_moved_to(I, c), _moved_to(I, c, A)):
                got = local_ci_test(moved, point, seed=seed).as_dict()
                del got["point"]
                assert got == expected, (I, c, A)
            outcomes.add((expected["lci"], expected["gorenstein"]))
    assert {(True, True), (False, False)} <= outcomes, outcomes


def _presentations(I, rng):
    """I, I with its generators shuffled, and I with g1*x1 added: one more
    generator, so a graded complete intersection takes the Artinian path."""
    gens = list(I.gens)
    return [I, Ideal(I.ring, rng.sample(gens, len(gens))), Ideal(I.ring, [*gens, gens[0] * I.ring.gens()[0]])]


def _invariance_cases(field, rng):
    """(homogeneous ideal, projective point on it): cones through the vertex
    of the last variable, there and moved to (c:1), a complete intersection
    among them; over F3 also the inconclusive cone of
    test_inconclusive_is_reported_not_guessed and the three-point cone."""
    R = make_ring(["x", "y", "z", "u"], field, "grevlex")
    x, y, z, u = R.gens()
    vertex = RationalPoint.projective(R, [0, 0, 0, 1])
    cones = [Ideal(R, [x * z + y**2, x * y])] + [_vertex_ideal(R, rng) for _ in range(3)]
    cases = []
    for I in cones:
        c = [rng.choice(R.field.random_sample()) for _ in range(3)]
        cases += [(I, vertex), (_moved_to(I, c), RationalPoint.projective(R, [*c, 1]))]
    if field == "F3":
        S = make_ring(["x", "y", "z"], field, "grevlex")
        x, y, z = S.gens()
        point = RationalPoint.projective(S, [0, 0, 1])
        cases += [
            (Ideal(S, [x**4 * y - x**2 * y**3, x**3 * y**2 - x * y**4]), point),
            (Ideal(S, [y * z, x * z, x**2 + 2 * y**2]), point),
        ]
    return cases


@pytest.mark.parametrize("field", ["F31", "F5", "F3", "Q"])
def test_local_reports_do_not_depend_on_presentation_or_seed(field):
    # shuffled generators, a redundant generator g1*x1 and seeds 0-3 leave
    # mu, codim and lci exact and equal; a Gorenstein verdict may be
    # inconclusive (None) under one of them and definite under another, but
    # two definite verdicts, with their length, socle and note, are equal.
    # local_ci_test is read at the point, local_gorenstein at the vertex of
    # the affine cone.
    rng = random.Random(f"presentation {field}")
    verdicts = set()
    for I, point in _invariance_cases(field, rng):
        reports, cone = [], []
        for J in _presentations(I, rng):
            for seed in range(4):
                reports.append(local_ci_test(J, point, seed=seed).as_dict())
                cone.append(local_gorenstein(J, seed=seed))
        assert len({(r["mu"], r["codim"], r["lci"]) for r in reports}) == 1, (I, point)
        definite = {
            (r["length"], r["socle_dim"], r["gorenstein"], r["note"])
            for r in reports if r["gorenstein"] is not None
        }
        assert len(definite) <= 1, (I, point, definite)
        assert len({v for v in cone if v.gorenstein is not None}) <= 1, (I, cone)
        verdicts |= {r["gorenstein"] for r in reports} | {v.gorenstein for v in cone}
    assert {True, False} <= verdicts, verdicts
    assert field != "F3" or None in verdicts


def test_local_reduction_agrees_with_regular_cuts_on_chart_ideals():
    # on chart ideals at points off the vertices, where cutting by forms
    # certified regular one at a time is definite, the one-shot reduction
    # cuts as often and finds the same socle and verdict; its length is the
    # multiplicity, which the reference's cut may exceed.  Where a distant
    # component leaves the reference inconclusive, the reduction decides.
    rng = random.Random(97)
    compared = decided = 0
    for field in ("F31", "F5", "Q"):
        R = make_ring(["x", "y", "z", "u"], field, "grevlex")
        sample = R.field.random_sample()
        for seed in range(10):
            c = [rng.choice(sample) for _ in range(3)]
            I = _moved_to(_vertex_ideal(R, rng), c)
            J = translate_to_origin(I, RationalPoint.projective(R, [*c, 1]))
            expected = _reduce_one_cut_at_a_time(J, seed)
            Q, forms = artinian_reduce(J, seed=seed)
            assert Q is not None, (field, J)
            if expected is None:
                decided += 1
                continue
            cuts, (length, socle_dim, gorenstein) = expected
            assert isinstance(Q, Ideal) and len(forms) == cuts, (field, J)
            got = _socle_invariants(Q)
            assert got[1:] == (socle_dim, gorenstein) and got[0] <= length, (field, J)
            compared += 1
    assert compared >= 12 and decided >= 6, (compared, decided)
    # a smooth point of a conic: at seed 0 the reference's first form is the
    # tangent line, regular but no reduction, and its length 2 falls to 1
    R = make_ring(["x", "y", "u"], "F31", "grevlex")
    x, y, u = R.gens()
    C = Ideal(R, [3 * x**2 + 17 * x * y + 2 * y**2 + 23 * x * u + 24 * y * u + 6 * u**2])
    J = translate_to_origin(C, RationalPoint.projective(R, [0, 2, 1]))
    assert _reduce_one_cut_at_a_time(J, 0) == (1, (2, 1, True))
    assert local_gorenstein(J, seed=0) == (1, 1, True)


def test_meeting_point_is_lci_exactly_where_it_is_gorenstein():
    # The paper's geometric analogue: the linking scheme of an l.a.l. pair
    # of double lines is locally Gorenstein.  U = I1 cap I2 is an unmixed
    # curve, so R/U is Cohen-Macaulay at the meeting point, and a Gorenstein
    # local ring of codimension 2 is a complete intersection (Serre;
    # Eisenbud 1995, Cor. 21.20).  So mu == 2 (the Schreyer-constant rank
    # of local_mu) holds exactly where the socle route of local_gorenstein
    # finds type 1; two double lines meeting in a point have length 4
    # there, and the linked buckets are exactly those of type 1.
    buckets = {"a": True, "b_hold": True, "b_violate": False, "one_sided": False}
    for field, count in (("F31", 40), ("F5", 20), ("Q", 12)):
        R = make_ring(["x", "y", "z", "u"], field, "grevlex")
        meeting = RationalPoint.projective(R, [0, 0, 0, 1])
        rng = random.Random(f"lci and gorenstein {field}")
        types = set()
        for k in range(count):
            case = list(buckets)[k % 4]
            L1, L2 = random_meeting_instance(R, case, rng)
            U = ideal_intersect(double_line_ideal(L1), double_line_ideal(L2))
            J = translate_to_origin(U, meeting)
            length, socle_dim, gorenstein = local_gorenstein(J, seed=k)
            assert (local_mu(J, _origin(J.ring)) == 2) is gorenstein, (field, case, U)
            assert length == 4 and socle_dim in (1, 2), (field, case, U)
            assert (socle_dim == 1) is buckets[case], (field, case, U)
            types.add(socle_dim)
        assert types == {1, 2}, field


def _drop_variable(f, target, index):
    """f, free of the variable at index, moved into target, the ring
    without it."""
    return Polynomial(target, {e[:index] + e[index + 1 :]: c for e, c in f.terms.items()})


def test_fossum_trivial_extension_by_the_canonical_module_is_gorenstein():
    # Fossum: for A Cohen-Macaulay with canonical module w_A, the trivial
    # extension A x w_A is Gorenstein, and Reiten (1972, Proc. AMS 32)
    # proved the converse; the paper extends this theorem.  For a linked
    # triple (B, first, second) w_A is first/B, A = R/second, up to a
    # shift.  With first's reduced basis g_1..g_m, eliminating s from
    # (e_i - s*g_i, s^2, B) in R[s, e] presents R/B x first/B, and adding
    # second gives K, presenting A x w_A: length(w_A) = length(A) = l, so
    # K has length 2l and type 1.  The mutant K' = second + (e_i*e_j)
    # presents A x A^m, whose socle is (soc A cap ann A^m) + soc A^m =
    # soc(A)^m: length (m+1)*l and type m*type(A).  A generator g_i of
    # degree 2 makes K a chart ideal, reduced on the non-graded branch.
    types, charts = set(), 0
    for field in ("F31", "F5", "Q"):
        R = make_ring(["x", "y", "z"], field, "grevlex")
        rng = random.Random(f"fossum {field}")
        made = 0
        while made < 8:
            triple = random_ci_linked_triple(R, rng, max_degree=2)
            if triple is None:
                continue
            made += 1
            g = triple.first.groebner().elements
            m = len(g)
            e_names = [f"e{i}" for i in range(1, m + 1)]
            S = make_ring([*R.variables, "s", *e_names], R.field, "grevlex")
            T = make_ring([*R.variables, *e_names], R.field, "grevlex")
            s, *e = S.gens()[R.nvars :]
            relations = [e[i] - s * map_to_ring(g[i], S) for i in range(m)]
            relations += [s**2, *(map_to_ring(b, S) for b in triple.base.gens)]
            extension = eliminate(Ideal(S, relations), ["s"])
            second = [map_to_ring(f, T) for f in triple.second.gens]
            K = Ideal(T, [*(_drop_variable(f, T, R.nvars) for f in extension.gens), *second])
            length, type_a, _ = local_gorenstein(triple.second)
            assert local_gorenstein(K) == (2 * length, 1, True), (field, triple)
            charts += not K.is_homogeneous()
            ei = T.gens()[R.nvars :]
            products = [a * b for a, b in itertools.combinations_with_replacement(ei, 2)]
            mutant = Ideal(T, [*second, *products])
            assert local_gorenstein(mutant) == ((m + 1) * length, m * type_a, m * type_a == 1)
            types.add(type_a)
    assert types == {1, 2} and charts >= 12
