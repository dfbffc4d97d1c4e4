import collections
import itertools
import random

import pytest

import liaison.ideals
from liaison import (
    Ideal,
    Polynomial,
    buchberger,
    double_line_ideal,
    eliminate,
    hilbert_data,
    ideal_colon,
    ideal_equal,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    make_ring,
    normal_form,
    saturate,
    standard_monomials,
    substitute,
)
from liaison.generators import (
    random_ci_linked_triple,
    random_form_dense,
    random_meeting_instance,
    random_monomial_ideal,
    random_same_support_instance,
)
from liaison.groebner import elimination_basis, reduced_basis
from liaison.ideals import local_leading_ideal, map_to_ring, minimal_monomial_generators
from liaison.linkage import is_regular
from liaison.polynomials import mono_lcm
from test_linkage import _changed_coordinates


@pytest.fixture
def P3():
    return make_ring(["x", "y", "z", "u"], "Q", "grevlex")


def test_sum_and_product(P3):
    x, y, z, u = P3.gens()
    assert ideal_equal(ideal_sum(Ideal(P3, [x]), Ideal(P3, [y])), Ideal(P3, [x, y]))
    assert ideal_equal(ideal_product(Ideal(P3, [x]), Ideal(P3, [y])), Ideal(P3, [x * y]))


def test_sum_idempotent(P3):
    x, y, *_ = P3.gens()
    I = Ideal(P3, [x**2, x * y])
    assert ideal_equal(ideal_sum(I, I), I)


def test_intersect_basic(P3):
    x, y, z, u = P3.gens()
    assert ideal_equal(
        ideal_intersect(Ideal(P3, [x]), Ideal(P3, [y])), Ideal(P3, [x * y])
    )
    I = Ideal(P3, [x**2, y])
    assert ideal_equal(ideal_intersect(I, I), I)


def test_intersect_double_lines_degree(P3):
    x, y, z, u = P3.gens()
    I1 = Ideal(P3, [z * x + u * y, x**2, x * y, y**2])
    I2 = Ideal(P3, [y * x + u * z, x**2, x * z, z**2])
    U = ideal_intersect(I1, I2)
    assert hilbert_data(U).degree == 4
    assert hilbert_data(U).projective_dimension == 1


def test_colon_basic(P3):
    x, y, z, u = P3.gens()
    assert ideal_equal(ideal_colon(Ideal(P3, [x * y]), Ideal(P3, [x])), Ideal(P3, [y]))


def test_colon_paper_fixture(P3):
    x, y, z, u = P3.gens()
    Y = Ideal(P3, [x**2, y**2])
    I1 = Ideal(P3, [z * x + u * y, x**2, x * y, y**2])
    I2 = Ideal(P3, [z * x - u * y, x**2, x * y, y**2])
    assert ideal_equal(ideal_colon(Y, I1), I2)


def test_colon_fossum_example():
    R = make_ring(["x1", "x2"], "Q", "grevlex")
    x1, x2 = R.gens()
    B = Ideal(R, [x1**2 + x1 * x2, x2**2])
    A1 = Ideal(R, [x1, x2**2])
    A2 = Ideal(R, [x1 + x2, x2**2])
    assert ideal_equal(ideal_colon(B, A1), A2)
    assert ideal_equal(ideal_colon(B, A2), A1)


def test_colon_makes_one_intersection_per_divisor_generator(P3, monkeypatch):
    from liaison import ideals

    calls = []

    def counting(I, J):
        calls.append((I, J))
        return ideal_intersect(I, J)

    monkeypatch.setattr(ideals, "ideal_intersect", counting)
    x, y, z, u = P3.gens()
    Y = Ideal(P3, [x**2, y**2])
    colon = ideal_colon(Y, Ideal(P3, [z * x + u * y, x * y, y**2]))
    assert ideal_equal(colon, Ideal(P3, [z * x - u * y, x**2, x * y, y**2]))
    assert len(calls) == 3


def test_colon_raises_when_a_division_leaves_a_remainder(P3, monkeypatch, capsys):
    from pathlib import Path

    from liaison import cli, ideals

    # an intersection outside (g) is an internal fault: the chain must stop
    # there, not divide it inexactly and return a colon
    def outside(I, J):
        return Ideal(I.ring, [Polynomial.constant(I.ring, 1)])

    monkeypatch.setattr(ideals, "ideal_intersect", outside)
    x, y, *_ = P3.gens()
    with pytest.raises(RuntimeError, match="lies outside"):
        ideal_colon(Ideal(P3, [x * y]), Ideal(P3, [x]))
    session = Path(__file__).resolve().parent.parent / "fixtures" / "fossum.session"
    code = cli.main([str(session), "colon", "B", "A1", "--json"])
    assert code == cli.EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: internal failure in colon: RuntimeError: colon: ")


def test_ideal_rejects_a_generator_from_another_ring(P3):
    other = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    with pytest.raises(ValueError, match="different ring context"):
        Ideal(P3, [P3.variable("x"), other.variable("y")])


def test_colon_by_zero_rejected(P3):
    x, *_ = P3.gens()
    with pytest.raises(ValueError):
        ideal_colon(Ideal(P3, [x]), Ideal.zero(P3))


def test_saturate(P3):
    x, y, *_ = P3.gens()
    assert ideal_equal(saturate(Ideal(P3, [x**2 * y]), Ideal(P3, [y])), Ideal(P3, [x**2]))
    assert ideal_equal(saturate(Ideal(P3, [x]), Ideal(P3, [y])), Ideal(P3, [x]))


def test_saturate_idempotent(P3):
    x, y, *_ = P3.gens()
    I = Ideal(P3, [x**2 * y, x * y**3])
    J = Ideal(P3, [y])
    once = saturate(I, J)
    assert ideal_equal(saturate(once, J), once)


def test_eliminate():
    R = make_ring(["t", "x", "y"], "Q", "grevlex")
    t, x, y = R.gens()
    I = Ideal(R, [t * x, (R.one() - t) * y])
    assert ideal_equal(eliminate(I, ["t"]), Ideal(R, [x * y]))
    assert ideal_equal(eliminate(I, []), I)


def test_eliminate_everything_from_proper_homogeneous():
    R = make_ring(["x", "y"], "Q", "grevlex")
    x, y = R.gens()
    assert eliminate(Ideal(R, [x**2, x * y]), ["x", "y"]).is_zero()


def test_eliminate_from_the_unit_and_the_zero_ideal():
    R = make_ring(["t", "x"], "Q", "grevlex")
    t, x = R.gens()
    assert eliminate(Ideal(R, [t * x - 1, x]), ["t", "x"]).is_unit()
    for names in (["t"], ["t", "x"]):
        eliminated = eliminate(Ideal.zero(R), names)
        assert eliminated.ring == R and eliminated.gens == ()


def test_binary_operations_refuse_ideals_of_two_rings(P3):
    other = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    with pytest.raises(ValueError, match="ideals live in different ring contexts"):
        ideal_intersect(Ideal(P3, [P3.variable("x")]), Ideal(other, [other.variable("y")]))


def test_ideal_equal(P3):
    x, y, *_ = P3.gens()
    assert ideal_equal(Ideal(P3, [x, y]), Ideal(P3, [x + y, y]))
    assert not ideal_equal(Ideal(P3, [x]), Ideal(P3, [x**2]))


def test_colon_product_identity_on_monomial_ideals():
    # (I : J) : K == I : (J * K)
    rng = random.Random(19)
    R = make_ring(["x", "y", "z"], "F31", "grevlex")
    for _ in range(30):
        I = random_monomial_ideal(R, rng)
        J = random_monomial_ideal(R, rng, max_gens=3)
        K = random_monomial_ideal(R, rng, max_gens=3)
        lhs = ideal_colon(ideal_colon(I, J), K)
        rhs = ideal_colon(I, ideal_product(J, K))
        assert ideal_equal(lhs, rhs)


def test_intersection_containments_and_colon_inclusions():
    rng = random.Random(17)
    R = make_ring(["x", "y", "z"], "F31", "grevlex")
    for _ in range(20):
        I = random_monomial_ideal(R, rng)
        J = random_monomial_ideal(R, rng)
        W = ideal_intersect(I, J)
        for g in W.gens:
            assert I.contains(g) and J.contains(g)
        C = ideal_colon(I, J)
        assert C.contains_ideal(I)
        for f in C.gens:
            for g in J.gens:
                assert I.contains(f * g)


def test_comaximal_intersection_colon_recovers_factor():
    # for I + J = (1): (I cap J) : J = I, on point-supported pairs
    rng = random.Random(23)
    R = make_ring(["x", "y"], "Q", "grevlex")
    x, y = R.gens()
    shift = {"x": x - 1, "y": y - 1}
    exercised = 0
    for _ in range(10):
        I = random_monomial_ideal(R, rng, max_gens=3)
        J0 = random_monomial_ideal(R, rng, max_gens=3)
        if I.is_zero() or J0.is_zero():
            continue
        # move J to the point (1, 1), away from the origin
        J = Ideal(R, [substitute(g, shift) for g in J0.gens])
        if ideal_sum(I, J).groebner().is_unit_ideal():
            W = ideal_intersect(I, J)
            assert ideal_equal(ideal_colon(W, J), I)
            exercised += 1
    assert exercised >= 3


def test_hilbert_data_examples(P3):
    x, y, z, u = P3.gens()
    sq = hilbert_data(Ideal(P3, [x**2, x * y, y**2]))
    assert (sq.krull_dimension, sq.projective_dimension, sq.degree) == (2, 1, 3)
    dl = hilbert_data(Ideal(P3, [z * x + u * y, x**2, x * y, y**2]))
    assert (dl.projective_dimension, dl.degree) == (1, 2)
    ci = hilbert_data(Ideal(P3, [x**2, y**2]))
    assert ci.degree == 4


def test_hilbert_complete_intersection_degrees():
    rng = random.Random(29)
    R = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    for _ in range(10):
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        f = random_form_dense(R, d1, rng)
        g = random_form_dense(R, d2, rng)
        I = Ideal(R, [f, g])
        data = hilbert_data(I)
        if data.krull_dimension == 2:  # honest codimension-2 complete intersection
            assert data.degree == d1 * d2


def _plane_section_is_coprime(g1, g2):
    """Whether g1, g2 restricted to x3 = ... = xn = 0 are nonzero and share
    no zero on P^1, decided by a basis in the plane's own ring: the section
    ideal, given a redundant third generator, is zero-dimensional there."""
    ring = g1.ring
    plane = make_ring(list(ring.variables[:2]), ring.field, "grevlex")
    X, Y = plane.gens()
    assignment = dict(zip(ring.variables, [X, Y] + [0] * (ring.nvars - 2)))
    s1, s2 = (substitute(g, assignment, ring=plane) for g in (g1, g2))
    if s1.is_zero() or s2.is_zero():
        return False
    return hilbert_data(Ideal(plane, [s1, s2, s1 * X])).krull_dimension == 0


@pytest.mark.parametrize("field", ["F31", "F5", "Q"])
def test_two_forms_take_the_closed_form_exactly_when_certified(field):
    # two forms whose restrictions to the plane x3 = ... = xn = 0 share no
    # zero get their Hilbert data from their degrees and build no basis; the
    # same ideal given the redundant generator g1*x1 reads them off its
    # basis.  Beside the drawn pairs come three the certificate declines: a
    # common factor, a form that vanishes on the plane, and (x3, x4)
    rng = random.Random(f"two-form closed form {field}")
    paths = collections.Counter()
    for n in (2, 3, 4):
        R = make_ring(["x", "y", "z", "u"][:n], field, "grevlex")
        v = R.gens()
        pairs = [
            (random_form_dense(R, rng.randint(1, 3), rng), random_form_dense(R, rng.randint(1, 3), rng))
            for _ in range(10)
        ]
        line = random_form_dense(R, 1, rng)
        pairs.append((line * random_form_dense(R, 1, rng), line * random_form_dense(R, 2, rng)))
        if n >= 3:
            pairs.append((v[2] * random_form_dense(R, 1, rng), random_form_dense(R, 2, rng)))
        if n == 4:
            pairs.append((v[2], v[3]))
        for g1, g2 in pairs:
            I = Ideal(R, [g1, g2])
            data = hilbert_data(I)
            assert data == hilbert_data(Ideal(R, [g1, g2, g1 * v[0]])), (g1, g2)
            certified = _plane_section_is_coprime(g1, g2)
            assert (I.held_groebner() is None) == certified, (g1, g2)
            if certified:
                d1, d2 = g1.total_degree(), g2.total_degree()
                assert (data.krull_dimension, data.degree) == (n - 2, d1 * d2)
            paths[certified] += 1
    assert paths[True] >= 20 and paths[False] >= 6, paths


@pytest.mark.parametrize("field", ["F31", "F5", "Q"])
def test_hilbert_data_is_invariant_under_a_linear_change_of_coordinates(field):
    # an invertible linear change of coordinates is a graded automorphism,
    # so it keeps the Hilbert series.  The section certificate looks at one
    # coordinate plane, which the change moves: the image of a complete
    # intersection may take the basis where the base took the closed form,
    # or the other way round, and both directions must occur
    paths = collections.Counter()
    for n in (3, 4):
        ring = make_ring(["x", "y", "z", "u"][:n], field, "grevlex")
        F = ring.field
        rng = random.Random(f"hilbert data under coordinates {field} {n}")
        sample = [F.zero, *F.random_sample()]
        for _ in range(40):
            triple = None
            while triple is None:
                triple = random_ci_linked_triple(ring, rng)
            # a permutation of the rows of a unitriangular matrix
            U = [[F.one if j == i else rng.choice(sample) if j > i else F.zero for j in range(n)]
                 for i in range(n)]
            A = [U[i] for i in rng.sample(range(n), n)]
            base = Ideal(ring, triple.base.gens)
            image = _changed_coordinates(base, A)
            assert hilbert_data(base) == hilbert_data(image), (n, base.gens, A)
            paths[base.held_groebner() is None, image.held_groebner() is None] += 1
    assert paths[True, False] and paths[False, True], paths


def test_hilbert_rejects_inhomogeneous(P3):
    x, y, *_ = P3.gens()
    with pytest.raises(ValueError):
        hilbert_data(Ideal(P3, [x**2 + y]))


def test_hilbert_edge_cases(P3):
    assert hilbert_data(Ideal.zero(P3)).krull_dimension == 4
    assert hilbert_data(Ideal(P3, [P3.one()])).degree == 0



def test_divide_by_one_minus_t_checks_its_precondition():
    from liaison.ideals import _divide_by_one_minus_t

    assert _divide_by_one_minus_t([1, -1]) == [1]
    with pytest.raises(ArithmeticError, match="does not vanish at t=1"):
        _divide_by_one_minus_t([1, 1])

def test_standard_monomials_fossum():
    R = make_ring(["x1", "x2"], "Q", "lex")
    x1, x2 = R.gens()
    I = Ideal(R, [x1**2 + x1 * x2, x2**2])
    assert len(standard_monomials(I.groebner())) == 4


def test_intersect_in_ring_already_using_t():
    R = make_ring(["t", "x"], "Q", "grevlex")
    t, x = R.gens()
    assert ideal_equal(ideal_intersect(Ideal(R, [t]), Ideal(R, [x])), Ideal(R, [t * x]))
    assert ideal_equal(saturate(Ideal(R, [t**2 * x]), Ideal(R, [x])), Ideal(R, [t**2]))


def test_fresh_variable_skips_every_taken_name():
    # t and t0 are taken, so the elimination and Lazard variables are t1
    from liaison.localrings import local_gorenstein

    R = make_ring(["t", "t0", "x"], "Q", "grevlex")
    t, t0, x = R.gens()
    assert ideal_intersect(Ideal(R, [t]), Ideal(R, [x])).groebner().elements == (t * x,)
    # k[t, x]/(t^2 + x^3, x*t) has basis 1, t, x, x^2, x^3 and socle (x^3)
    assert local_gorenstein(Ideal(R, [t**2 + x**3, t0, x * t])) == (5, 1, True)


def test_gb_cache_reused(P3):
    x, y, *_ = P3.gens()
    I = Ideal(P3, [x**2, y])
    assert I.groebner() is I.groebner()


def _random_ideal(ring, rng):
    monomials = [e for e in itertools.product(range(3), repeat=ring.nvars) if 1 <= sum(e) <= 2]
    gens = []
    for _ in range(rng.randint(1, 3)):
        terms = {rng.choice(monomials): rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(1, 2))}
        gens.append(Polynomial.from_dict(ring, terms))
    return Ideal(ring, gens)


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("field", ["Q", "F5", "F31"])
def test_intersect_and_colon_hold_their_reduced_basis(field, order):
    # a colon holds the basis it computed last, and under grevlex an
    # intersection holds the t-free part of its block basis; either must be
    # the reduced basis of the result's generators
    rng = random.Random(31)
    for nvars in (2, 3, 4):
        ring = make_ring(["x", "y", "z", "u"][:nvars], field, order)
        for _ in range(25):
            I, J = _random_ideal(ring, rng), _random_ideal(ring, rng)
            meet, colon = ideal_intersect(I, J), ideal_colon(I, J)
            assert (meet._gb is not None) == (order == "grevlex")
            assert colon._gb is not None
            for K in (meet, colon):
                assert K.groebner().elements == buchberger(list(K.gens)).elements


def _equal_by_reduced_bases(I, J):
    """Reference for ideal_equal: the reduced bases of fresh copies agree."""
    return Ideal(I.ring, I.gens).groebner().elements == Ideal(J.ring, J.gens).groebner().elements


@pytest.mark.parametrize("order", ["grevlex", "lex", "block(1)"])
@pytest.mark.parametrize("field", ["F31", "F5", "Q"])
def test_ideal_equal_by_containment_agrees_with_reduced_bases(field, order):
    # equal pairs (shuffled, scaled and redundant generators), unequal ones,
    # the zero and the unit ideal; with no basis held, with one side's basis
    # held (either side) and with both held
    rng = random.Random(f"ideal_equal {field} {order}")
    ring = make_ring(["x", "y", "z"], field, order)
    x, y, z = ring.gens()
    zero, unit = Ideal.zero(ring), Ideal(ring, [ring.one()])
    pairs = [(zero, zero), (unit, Ideal(ring, [x, x + 1])), (zero, unit)]
    for _ in range(12):
        I = _random_ideal(ring, rng)
        gens = list(I.gens)
        scales = [ring.field.normalize(rng.randint(1, 4)) for _ in gens]
        h = _random_ideal(ring, rng).gens[0]
        pairs += [
            (I, Ideal(ring, rng.sample(gens, len(gens)))),
            (I, Ideal(ring, [g.scale(c) for g, c in zip(gens, scales)])),
            (I, Ideal(ring, gens + [gens[0] * h + gens[-1]])),
            (I, Ideal(ring, gens + [h])),
            (I, Ideal(ring, gens[:-1] + [gens[-1] * x])),
            (I, zero),
            (I, unit),
        ]
    outcomes = set()
    for I, J in pairs:
        expected = _equal_by_reduced_bases(I, J)
        outcomes.add(expected)
        for held in ((), (0,), (1,), (0, 1)):
            A, B = Ideal(ring, I.gens), Ideal(ring, J.gens)
            for side in held:
                (A, B)[side].groebner()
            assert ideal_equal(A, B) == expected, (I, J, held)
            assert ideal_equal(B, A) == expected, (I, J, held)
    assert outcomes == {True, False}


def _copies(ideals, held):
    """Fresh copies of ideals; those at the indices in held hold their basis."""
    copies = [Ideal(I.ring, I.gens) for I in ideals]
    for side in held:
        copies[side].groebner()
    return copies


def _saturate_by_reduced_bases(I, J):
    """Reference for saturate: the reduced basis of the iterated colon,
    stopped when the reduced bases of fresh copies agree."""
    current = Ideal(I.ring, I.gens)
    while True:
        nxt = ideal_colon(current, Ideal(J.ring, J.gens))
        if _equal_by_reduced_bases(nxt, current):
            return Ideal(I.ring, current.gens).groebner().elements
        current = nxt


@pytest.mark.parametrize("field", ["F31", "Q"])
def test_equality_saturation_and_regularity_ignore_held_bases(field):
    # equal pairs, strict containments either way and incomparable pairs,
    # with no basis held, one side's (either side) and both: ideal_equal,
    # saturate and is_regular agree with references that compare the reduced
    # bases of fresh copies, as the rule by held bases did
    rng = random.Random(f"held bases {field}")
    ring = make_ring(["x", "y", "z"], field, "grevlex")
    kinds, regular = collections.Counter(), collections.Counter()
    for _ in range(8):
        I = _random_ideal(ring, rng)
        h = _random_ideal(ring, rng).gens[0]
        equal, larger = Ideal(ring, I.gens[::-1] + I.gens[:1]), ideal_sum(I, Ideal(ring, [h]))
        for J in (equal, larger, _random_ideal(ring, rng)):
            for A, B in ((I, J), (J, I)):
                both = ideal_sum(A, B)
                inside = (_equal_by_reduced_bases(both, B), _equal_by_reduced_bases(both, A))
                kinds[inside] += 1
                saturated = _saturate_by_reduced_bases(A, B)
                f = B.gens[0]
                is_nzd = _equal_by_reduced_bases(ideal_colon(A, Ideal(ring, [f])), A)
                regular[is_nzd] += 1
                for held in ((), (0,), (1,), (0, 1)):
                    assert ideal_equal(*_copies((A, B), held)) == all(inside), (A, B, held)
                    result = saturate(*_copies((A, B), held))
                    assert Ideal(ring, result.gens).groebner().elements == saturated, (A, B, held)
                    assert is_regular(f, _copies((A, B), held)[0]) == is_nzd, (A, f, held)
    assert set(kinds) == {(True, True), (True, False), (False, True), (False, False)}, kinds
    assert set(regular) == {True, False}, regular


def _t_free_part_by_reference(gens, k):
    """Reference for elimination: the elements of buchberger's reduced
    block(k) basis that are free of the first k variables."""
    if not gens:
        return []
    return [g for g in buchberger(gens).elements if not any(g.leading_monomial()[:k])]


def _intersect_by_reference(I, J):
    """ideal_intersect's generators as the t-trick gives them with no lcms
    entered: the t-free part of the reduced block(1) basis of t*I + (1-t)*J."""
    ring = I.ring
    assert "t" not in ring.variables
    ext = make_ring(["t", *ring.variables], ring.field, "block(1)")
    t = ext.variable("t")
    gens = [t * map_to_ring(f, ext) for f in I.gens]
    gens += [(ext.one() - t) * map_to_ring(g, ext) for g in J.gens]
    kept = _t_free_part_by_reference(gens, 1) if I.gens and J.gens else []
    return tuple(Polynomial(ring, {e[1:]: c for e, c in g.terms.items()}) for g in kept)


def _eliminate_by_reference(I, names):
    ring = I.ring
    remaining = [v for v in ring.variables if v not in names]
    perm = make_ring(names + remaining, ring.field, f"block({len(names)})")
    kept = _t_free_part_by_reference([map_to_ring(g, perm) for g in I.gens], len(names))
    return tuple(map_to_ring(g, ring) for g in kept)


_SMALL_MONOMIALS = [e for e in itertools.product(range(3), repeat=3) if 1 <= sum(e) <= 2]


def _with_monomials(ring, rng, count):
    """A random ideal of _random_ideal's kind plus count monomial generators,
    scaled by a random nonzero coefficient."""
    gens = list(_random_ideal(ring, rng).gens)
    for _ in range(count):
        gens.append(Polynomial.monomial(ring, rng.choice(_SMALL_MONOMIALS), rng.choice([1, 2, -3])))
    return Ideal(ring, gens)


def _intersection_cases(ring, rng):
    """Pairs with 0-3 monomial generators on each side, a shared generator,
    the unit ideal, and a zero generator (dropped, leaving the zero ideal)."""
    x, y, z = ring.gens()
    cases = []
    for count in range(4):
        for _ in range(3):
            cases.append((_with_monomials(ring, rng, count), _with_monomials(ring, rng, rng.randint(0, 3))))
    I, J = _with_monomials(ring, rng, 1), _with_monomials(ring, rng, 1)
    cases.append((I, Ideal(ring, list(J.gens) + [I.gens[0]])))
    cases.append((Ideal(ring, [ring.one()]), _with_monomials(ring, rng, 2)))
    cases.append((_with_monomials(ring, rng, 2), Ideal(ring, [ring.one(), x])))
    cases.append((Ideal(ring, [x * y, Polynomial.zero(ring)]), Ideal(ring, [x**2, y * z + x])))
    cases.append((Ideal(ring, [Polynomial.zero(ring)]), Ideal(ring, [x**2])))
    return cases


@pytest.mark.parametrize("order", ["grevlex", "lex", "block(1)"])
@pytest.mark.parametrize("field", ["F31", "F5", "Q"])
def test_intersect_and_eliminate_match_the_plain_t_trick(field, order):
    # ideal_intersect enters the lcms of monomial generators and interreduces
    # only the t-free part of its basis, in the block ring: the generators
    # must be the very polynomials the plain t-trick keeps (under lex, a
    # t-free part interreduced after dropping t would differ)
    rng = random.Random(f"intersect reference {field} {order}")
    ring = make_ring(["x", "y", "z"], field, order)
    for I, J in _intersection_cases(ring, rng):
        expected = _intersect_by_reference(I, J)
        meet = ideal_intersect(I, J)
        assert meet.gens == expected, (I, J)
        if order == "grevlex":
            assert meet.groebner().elements == expected
        W = ideal_sum(I, J)
        for names in (["x"], ["z"], ["x", "y"], ["y", "z"]):
            assert eliminate(W, names).gens == _eliminate_by_reference(W, names), (W, names)


@pytest.mark.parametrize("order", ["grevlex", "lex", "block(1)"])
@pytest.mark.parametrize("field", ["F31", "Q"])
def test_intersect_is_invariant_under_presentation(field, order):
    # swapping the sides, shuffling generators and adding redundant monomial
    # generators change the lcms entered, never the basis returned
    rng = random.Random(f"intersect metamorphic {field} {order}")
    ring = make_ring(["x", "y", "z"], field, order)
    variables = ring.gens()
    cubics = [e for e in itertools.product(range(4), repeat=3) if sum(e) == 3]
    for I, J in _intersection_cases(ring, rng):
        expected = ideal_intersect(I, J).gens

        def redundant(K):
            # a multiple of a generator made a monomial, and monomials of K
            extra = [m * rng.choice(variables) for m in K.gens if len(m.terms) == 1][:1]
            extra += [m for m in (Polynomial.monomial(ring, e) for e in cubics) if K.contains(m)][:2]
            return Ideal(ring, list(K.gens) + extra)

        for A, B in (
            (J, I),
            (Ideal(ring, rng.sample(I.gens, len(I.gens))), Ideal(ring, rng.sample(J.gens, len(J.gens)))),
            (redundant(I), J),
            (I, redundant(J)),
            (redundant(J), redundant(I)),
        ):
            assert ideal_intersect(A, B).gens == expected, (I, J, A, B)


def _random_exponents(rng, nvars):
    """A list of exponent tuples: sometimes the constant, and repeated and
    non-minimal monomials (a multiple of one already drawn)."""
    out = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        if kind < 0.05:
            out.append((0,) * nvars)
        elif out and kind < 0.25:
            out.append(rng.choice(out))
        elif out and kind < 0.45:
            out.append(tuple(a + rng.randint(0, 1) for a in rng.choice(out)))
        else:
            out.append(tuple(rng.randint(0, 2) for _ in range(nvars)))
    return out


@pytest.mark.parametrize("field", ["F31", "F5", "Q"])
def test_the_monomial_part_of_the_t_trick_is_a_groebner_basis(field):
    # in block(1) with t first, M = {t*m} + {(1-t)*m'} + the minimal
    # lcm(m, m') for monomials m of I and m' of J; reduced_basis forms no
    # S-pair, so it equals buchberger's basis only when M is a Groebner basis
    rng = random.Random(f"monomial part {field}")
    checked, refuted, constants = 0, 0, 0
    for nvars in (2, 3, 4):
        ext = make_ring(["t", "x", "y", "z", "u"][: nvars + 1], field, "block(1)")
        t, one = ext.variable("t"), ext.one()
        coefficients = [1, 2, -3] if field == "Q" else [1, 2, 3, 4]
        for _ in range(40):
            mI, mJ = _random_exponents(rng, nvars), _random_exponents(rng, nvars)
            constants += not all(map(any, mI + mJ))
            A = [t * Polynomial.monomial(ext, (0, *m), rng.choice(coefficients)) for m in mI]
            B = [(one - t) * Polynomial.monomial(ext, (0, *m), rng.choice(coefficients)) for m in mJ]
            lcms = minimal_monomial_generators(mono_lcm(m, n) for m in mI for n in mJ)
            C = [Polynomial.monomial(ext, (0, *e)) for e in lcms]
            for M in (A + B + C, rng.sample(A + B + C, len(A + B + C)), A, B, A + C, B + C):
                assert reduced_basis(ext, M) == buchberger(M), (mI, mJ, M)
                checked += 1
            # without the lcms, S(t*m, (1-t)*m') = lcm(m, m') reduces by nothing
            if reduced_basis(ext, A + B) != buchberger(A + B):
                refuted += 1
    assert checked == 3 * 40 * 6 and refuted == 3 * 40 and constants > 5


def _without_monomials(ring, rng):
    """A random ideal of _random_ideal's kind, its monomial generators dropped."""
    x, y, z = ring.gens()
    return Ideal(ring, [g for g in _random_ideal(ring, rng).gens if len(g.terms) > 1] or [x * y + z**2])


def _checked_against_no_basis(monkeypatch):
    """Make every elimination_basis call of liaison.ideals also compute the
    same basis with its known basis fed as plain generators, and assert
    both agree; returns the list of (number of gens, size of basis) seen."""
    seen = []

    def checked(gens, basis=()):
        gens, basis = list(gens), list(basis)
        seeded = elimination_basis(gens, basis)
        assert seeded == elimination_basis(basis + gens), (basis, gens)
        seen.append((len(gens), len(basis)))
        return seeded

    monkeypatch.setattr(liaison.ideals, "elimination_basis", checked)
    return seen


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("field", ["F31", "Q"])
def test_intersect_from_its_monomial_part_matches_no_basis(field, order, monkeypatch):
    # ideal_intersect starts the S-pair loop from its monomial part; the
    # t-free basis must be the one the loop gives with every generator fed
    # as a plain generator: random ideals with no, some and only monomial
    # generators, the four meeting buckets, same-support pairs and the
    # intersections of a colon chain
    rng = random.Random(f"intersect from the monomial part {field} {order}")
    small = make_ring(["x", "y", "z"], field, order)
    space = make_ring(["x", "y", "z", "u"], field, order)
    pairs = _intersection_cases(small, rng) + _intersection_cases(small, rng)
    for _ in range(8):
        pairs.append((_without_monomials(small, rng), _without_monomials(small, rng)))
        pairs.append((_without_monomials(small, rng), random_monomial_ideal(small, rng)))
        pairs.append((random_monomial_ideal(small, rng), random_monomial_ideal(small, rng)))
    for case in ("a", "b_hold", "b_violate", "one_sided"):
        for _ in range(3):
            pairs.append(tuple(map(double_line_ideal, random_meeting_instance(space, case, rng))))
    for traceless in (True, False, True, False):
        L1, L2, _ = random_same_support_instance(space, rng, traceless)
        pairs.append((double_line_ideal(L1), double_line_ideal(L2)))
    seen = _checked_against_no_basis(monkeypatch)
    for I, J in pairs:
        ideal_intersect(I, J)
    colons = len(seen)
    for I, J in pairs[-16:-4:3]:  # one meeting pair of each bucket
        ideal_colon(ideal_intersect(I, J), I)
    assert len(seen) > colons + 4
    assert any(gens == 0 and basis for gens, basis in seen)  # both sides monomial
    assert any(gens and not basis for gens, basis in seen)  # neither side has a monomial
    assert any(gens and basis for gens, basis in seen)


def test_local_leading_ideal_examples():
    # Lazard's leading ideal at the origin sees only the origin's germ, and
    # the tangent cone has its Hilbert data: local dimension and multiplicity
    R = make_ring(["x", "y", "t"], "Q", "grevlex")  # t is taken: a fresh name is used
    x, y, t = R.gens()
    cases = [
        # (x, y) cap (x - 1): the plane x = 1 misses the origin
        ([x**2 - x, x * y - y], [x, y], 1, 1),
        # a node, tangent cone x^2 - y^2 (x^2 leads under grevlex)
        ([y**2 - x**2 - x**3], [x**2], 2, 2),
        # a smooth surface tangent to y = 0, and a cuspidal one
        ([y - x**2 - t**3], [y], 2, 1),
        ([y**2 - x**3], [y**2], 2, 2),
    ]
    for gens, leading, dim, multiplicity in cases:
        J = Ideal(R, gens)
        L, cone = local_leading_ideal(J)
        assert local_leading_ideal(J) == (L, cone)  # held: the same objects again
        assert L.held_groebner() is not None and set(L.groebner()) == set(leading), gens
        assert cone.is_homogeneous()
        for data in (hilbert_data(L), hilbert_data(cone)):
            assert (data.krull_dimension, data.degree) == (dim, multiplicity), gens
    graded = Ideal(R, [x * y, y**2])
    L, cone = local_leading_ideal(graded)
    assert ideal_equal(cone, graded) and set(L.groebner()) == {x * y, y**2}
    assert local_leading_ideal(graded)[0] is L
