import random
import sys

import pytest

from liaison import (
    Ideal,
    LinkedTriple,
    Polynomial,
    doubling_check,
    hilbert_data,
    ideal_colon,
    ideal_equal,
    ideal_product,
    link,
    make_ring,
    regular_element_transfer_test,
    socle_lemma_test,
    substitute,
    verify_linked_triple,
)
from liaison import ideals, linkage, localrings
from liaison.generators import random_ci_linked_triple, random_form_dense
from liaison.groebner import divide
from liaison.linalg import rank
from liaison.sessions import parse_session


@pytest.fixture
def P3():
    return make_ring(["x", "y", "z", "u"], "Q", "grevlex")


@pytest.fixture
def fossum():
    R = make_ring(["x1", "x2"], "Q", "grevlex")
    x1, x2 = R.gens()
    B = Ideal(R, [x1**2 + x1 * x2, x2**2])
    A1 = Ideal(R, [x1, x2**2])
    A2 = Ideal(R, [x1 + x2, x2**2])
    return LinkedTriple(B, A1, A2)


def test_link_paper_colon_fixture(P3):
    x, y, z, u = P3.gens()
    Y = Ideal(P3, [x**2, y**2])
    I1 = Ideal(P3, [z * x + u * y, x**2, x * y, y**2])
    I2 = Ideal(P3, [z * x - u * y, x**2, x * y, y**2])
    assert ideal_equal(link(Y, I1), I2)
    assert ideal_equal(link(Y, I2), I1)


def test_link_fossum(fossum):
    assert ideal_equal(link(fossum.base, fossum.first), fossum.second)
    assert ideal_equal(link(fossum.base, fossum.second), fossum.first)


def test_link_of_ideal_with_itself_is_unit(P3):
    x, y, *_ = P3.gens()
    I = Ideal(P3, [x, y])
    assert link(I, I).is_unit()


def test_link_requires_containment(P3):
    x, y, *_ = P3.gens()
    with pytest.raises(ValueError):
        link(Ideal(P3, [x**2]), Ideal(P3, [y]))


def test_verify_fossum_triple(fossum):
    report = verify_linked_triple(fossum, seed=1)
    assert report.colon_first and report.colon_second
    assert report.degrees == (4, 2, 2)
    assert report.degree_additive
    assert report.gorenstein_ok
    assert report.passed
    assert "necessary-condition" in report.note


def test_verify_double_line_triple(P3):
    x, y, z, u = P3.gens()
    triple = LinkedTriple(
        Ideal(P3, [x**2, y**2]),
        Ideal(P3, [z * x + u * y, x**2, x * y, y**2]),
        Ideal(P3, [z * x - u * y, x**2, x * y, y**2]),
    )
    report = verify_linked_triple(triple, seed=1)
    assert report.degrees == (4, 2, 2)
    assert report.passed


def test_verify_broken_triple_fails():
    R = make_ring(["x", "y"], "Q", "grevlex")
    x, y = R.gens()
    triple = LinkedTriple(Ideal(R, [x**2, y**2]), Ideal(R, [x, y]), Ideal(R, [x, y]))
    assert ideal_equal(
        ideal_colon(triple.base, triple.first), Ideal(R, [x**2, x * y, y**2])
    )
    report = verify_linked_triple(triple, seed=1)
    assert not report.colon_first  # (x^2, y^2) : (x, y) = (x^2, xy, y^2) != (x, y)
    assert not report.passed


def test_gorenstein_verdict_with_asymmetric_h_vector_raises(monkeypatch):
    # R/(x^2, xy, y^2) has h-vector 1 + 2t, so it cannot be Gorenstein
    R = make_ring(["x", "y"], "Q", "grevlex")
    x, y = R.gens()
    B = Ideal(R, [x**2, x * y, y**2])
    assert hilbert_data(B).h_vector == (1, 2)
    monkeypatch.setattr(linkage, "local_gorenstein", lambda I, seed=0: (3, 1, True))
    triple = LinkedTriple(B, Ideal(R, [x, y]), Ideal(R, [x, y]))
    with pytest.raises(RuntimeError, match="h-vector"):
        verify_linked_triple(triple)


def test_verify_dimension_mismatch_raises(P3):
    x, y, z, u = P3.gens()
    triple = LinkedTriple(Ideal(P3, [x**2, y**2]), Ideal(P3, [x, y, z]), Ideal(P3, [x, y]))
    with pytest.raises(ValueError, match="dimension"):
        verify_linked_triple(triple, seed=1)


def test_verification_refuses_a_triple_across_rings(P3, fossum):
    x, y, *_ = P3.gens()
    triple = LinkedTriple(fossum.base, Ideal(P3, [x]), Ideal(P3, [y]))
    with pytest.raises(ValueError, match="triple mixes ring contexts"):
        verify_linked_triple(triple)


@pytest.mark.parametrize(
    "gorenstein, second_is_first, passed",
    [
        ((4, 1, True), False, True),
        ((4, 2, False), False, False),
        # the slice budget ran out: inconclusive (ids name the verdict)
        pytest.param(localrings.GorensteinInvariants(None, None, None), False, None, id="None-False-None"),
        # a failed exact check decides, whatever the slices say
        pytest.param(localrings.GorensteinInvariants(None, None, None), True, False, id="None-True-False"),
    ],
)
def test_passed_is_the_gorenstein_verdict_once_every_exact_check_holds(
    monkeypatch, fossum, gorenstein, second_is_first, passed
):
    monkeypatch.setattr(linkage, "local_gorenstein", lambda I, seed=0: gorenstein)
    base, first, second = fossum.ideals()
    report = verify_linked_triple(LinkedTriple(base, first, first if second_is_first else second))
    assert report.passed is passed
    assert report.gorenstein_ok is (gorenstein and gorenstein[2])
    assert report.as_dict()["passed"] is passed


def test_triple_report_has_no_placeholder_verdict():
    with pytest.raises(TypeError):
        linkage.TripleReport()


def test_doubling_examples():
    R = make_ring(["x", "y", "z"], "Q", "grevlex")
    x, y, z = R.gens()
    assert doubling_check(Ideal(R, [x**2, y]), Ideal(R, [x, y]))
    assert doubling_check(Ideal(R, [x**2, y**2]), Ideal(R, [x, y**2]))


def test_doubling_computes_each_hilbert_series_once(monkeypatch):
    # link() needs both Hilbert series for its dimension check and the
    # degree comparison reads them again: each ideal holds its own
    from liaison import ideals

    computed = []
    compute = ideals._hilbert_data

    def counting(I):
        computed.append(I)
        return compute(I)

    monkeypatch.setattr(ideals, "_hilbert_data", counting)
    R = make_ring(["x", "y", "z", "u"], "Q", "grevlex")
    x, y, z, u = R.gens()
    assert doubling_check(Ideal(R, [x**2, y]), Ideal(R, [x, y]))
    assert len(computed) == 2


def test_fossum_is_not_a_doubling(fossum):
    assert not doubling_check(fossum.base, fossum.first)
    assert not doubling_check(fossum.base, fossum.second)


def test_regular_element_transfer(P3):
    x, y, z, u = P3.gens()
    triple = LinkedTriple(
        Ideal(P3, [x**2, y**2]),
        Ideal(P3, [z * x + u * y, x**2, x * y, y**2]),
        Ideal(P3, [z * x - u * y, x**2, x * y, y**2]),
    )
    ok = regular_element_transfer_test(triple, z)
    assert ok.regular_base and ok.regular_first and ok.regular_second and ok.consistent
    bad = regular_element_transfer_test(triple, x)
    assert not bad.regular_base and bad.consistent


@pytest.mark.parametrize("constant", [0, 1])
def test_regular_transfer_refuses_zero_and_units(fossum, constant):
    h = Polynomial.constant(fossum.base.ring, constant)
    with pytest.raises(ValueError, match="nonzero non-unit"):
        regular_element_transfer_test(fossum, h)


def test_regular_transfer_artinian(fossum):
    x2 = fossum.base.ring.variable("x2")
    report = regular_element_transfer_test(fossum, x2)
    assert not report.regular_base and not report.regular_first and not report.regular_second
    assert report.consistent


def test_regular_transfer_consistency_randomized():
    rng = random.Random(61)
    R = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    count = 0
    while count < 10:
        triple = random_ci_linked_triple(R, rng)
        if triple is None:
            continue
        h = R.variable(rng.choice(R.variables))
        report = regular_element_transfer_test(triple, h)
        assert report.consistent
        count += 1


def test_socle_lemma_fossum(fossum):
    report = socle_lemma_test(fossum)
    assert report.all_equal
    assert report.socle_dim == 1
    assert report.dims == (1, 1, 1)


def test_socle_lemma_self_linked():
    R = make_ring(["x", "y"], "Q", "grevlex")
    x, y = R.gens()
    B = Ideal(R, [x**2, y**2])
    A = Ideal(R, [x, y**2])
    triple = LinkedTriple(B, A, ideal_colon(B, A))
    report = socle_lemma_test(triple)
    assert report.all_equal and report.socle_dim == 1


@pytest.mark.parametrize(
    "base, first, second, expected",
    [
        # second = base: its carrier (base : m) cap base is base, zero in R/base
        ("x^2, y^2", "x, y^2", "x^2, y^2", {"socle_dim": 1, "dims": [1, 0, 1], "all_equal": False}),
        # not Gorenstein: the socle x, y of R/(x, y)^2 splits between the carriers
        ("x^2, x*y, y^2", "x, y^2", "y, x^2", {"socle_dim": 2, "dims": [2, 1, 1], "all_equal": False}),
        # base with a component at (1, 0): only the origin's socle counts
        ("x^2*(x - 1), y^2", "x, y^2", "x^2, y", {"socle_dim": 1, "dims": [1, 1, 1], "all_equal": True}),
        ("x^2*(x - 1), y^2", "x - 1, y", "x^2, y^2", {"socle_dim": 1, "dims": [1, 0, 1], "all_equal": False}),
        ("1", "x, y", "x^2, y", {"socle_dim": 0, "dims": [0, 0, 0], "all_equal": True}),
        # base + carrier is the unit ideal: the carrier's image is all of R/base
        ("x^2, y^2", "x - 1, y", "x, y - 2", {"socle_dim": 1, "dims": [1, 1, 1], "all_equal": True}),
    ],
)
def test_socle_lemma_dims(base, first, second, expected):
    session = parse_session(
        f"ring Q[x,y] order grevlex\nideal B = {base}\nideal F = {first}\nideal S = {second}\n"
    )
    triple = LinkedTriple(*(session.lookup_ideal(name) for name in ("B", "F", "S")))
    assert socle_lemma_test(triple).as_dict() == expected


def test_socle_lemma_makes_no_colon_or_intersection(fossum, monkeypatch):
    calls = []
    for name in ("ideal_colon", "ideal_intersect"):
        for module in (ideals, linkage, localrings):
            if hasattr(module, name):
                original = getattr(module, name)

                def counting(*args, _name=name, _original=original):
                    calls.append(_name)
                    return _original(*args)

                monkeypatch.setattr(module, name, counting)
    triple = LinkedTriple(*(Ideal(I.ring, I.gens) for I in fossum.ideals()))
    assert socle_lemma_test(triple).dims == (1, 1, 1)
    assert calls == []


def test_verify_rejects_non_homogeneous_before_any_colon(monkeypatch):
    calls = []

    def counting(I, J):
        calls.append((I, J))
        return ideal_colon(I, J)

    monkeypatch.setattr(linkage, "ideal_colon", counting)
    R = make_ring(["x", "y", "z"], "Q", "grevlex")
    x, y, z = R.gens()
    triple = LinkedTriple(
        Ideal(R, [x**2 - y * z + x, y**2]), Ideal(R, [x, y**2]), Ideal(R, [x + 1, y**2])
    )
    with pytest.raises(ValueError, match="homogeneous"):
        verify_linked_triple(triple)
    assert calls == []


def test_socle_lemma_rejects_positive_dimension(P3):
    x, y, z, u = P3.gens()
    triple = LinkedTriple(
        Ideal(P3, [x**2, y**2]),
        Ideal(P3, [z * x + u * y, x**2, x * y, y**2]),
        Ideal(P3, [z * x - u * y, x**2, x * y, y**2]),
    )
    with pytest.raises(ValueError):
        socle_lemma_test(triple)


def test_link_involution_randomized():
    rng = random.Random(67)
    for names in (["x1", "x2"], ["x", "y", "z"]):
        R = make_ring(names, "F31", "grevlex")
        count = 0
        while count < 8:
            triple = random_ci_linked_triple(R, rng)
            if triple is None:
                continue
            assert ideal_equal(link(triple.base, triple.first), triple.second)
            assert ideal_equal(link(triple.base, triple.second), triple.first)
            count += 1


def test_generated_triples_make_no_colon(monkeypatch):
    # the links of a CI inside a CI are closed-form (B + (det C) and A);
    # test_link_involution_randomized checks them against link
    calls = []

    def counting(I, J):
        calls.append((I, J))
        return ideal_colon(I, J)

    for name, module in list(sys.modules.items()):
        if name.startswith("liaison") and hasattr(module, "ideal_colon"):
            monkeypatch.setattr(module, "ideal_colon", counting)
    rng = random.Random(71)
    made = 0
    for names in (["x1", "x2"], ["x", "y", "z"], ["x", "y", "z", "u"]):
        R = make_ring(names, "F31", "grevlex")
        for _ in range(10):
            made += random_ci_linked_triple(R, rng) is not None
    assert made >= 10
    assert calls == []


def _count_colons(monkeypatch):
    calls = []

    def counting(I, J):
        calls.append((I, J))
        return ideal_colon(I, J)

    monkeypatch.setattr(linkage, "ideal_colon", counting)
    return calls


def _count_products(monkeypatch):
    calls = []

    def counting(I, J):
        calls.append((I, J))
        return ideal_product(I, J)

    monkeypatch.setattr(linkage, "ideal_product", counting)
    return calls


def _fresh(triple):
    """The same triple with no cached Groebner basis or Hilbert data."""
    return LinkedTriple(*(Ideal(I.ring, I.gens) for I in triple.ideals()))


def test_certified_fossum_triple_makes_no_colon(fossum, monkeypatch):
    # base and first are complete intersections: the determinant route
    # builds no product first*second either
    calls = _count_colons(monkeypatch)
    products = _count_products(monkeypatch)
    report = verify_linked_triple(_fresh(fossum), seed=0)
    assert report.colon_first and report.colon_second and report.passed
    assert calls == []
    assert products == []


def test_skew_lines_take_the_colon_fallback(P3, monkeypatch):
    # two skew lines are not arithmetically Cohen-Macaulay, so the
    # certificate does not apply; the colons decide, as before
    x, y, z, u = P3.gens()
    triple = LinkedTriple(
        Ideal(P3, [x * z, y * u]),
        Ideal(P3, [x * z, x * u, y * z, y * u]),  # (x, y) cap (z, u)
        Ideal(P3, [x * y, x * z, u * y, u * z]),  # (x, u) cap (y, z)
    )
    calls = _count_colons(monkeypatch)
    report = verify_linked_triple(triple, seed=0).as_dict()
    assert len(calls) == 2
    assert report == {
        "containments": [True, True],
        "colon_first": True,
        "colon_second": True,
        "dimensions": [2, 2, 2],
        "degrees": [4, 2, 2],
        "degree_additive": True,
        "point_invariants": [{"point": "(0,0,0,0)", "length": 4, "socle_dim": 1, "gorenstein": True}],
        "gorenstein_ok": True,
        "passed": True,
        "note": linkage.NECESSARY_CONDITION_NOTE,
    }


def _non_cohen_macaulay_first_triple():
    # first = (x, y^3) with x cut down to x*m: not saturated, so R/first has
    # depth 0 and is not Cohen-Macaulay.  Every other fact of the
    # certificate holds: base Gorenstein, both containments, first*second
    # inside base, and h_second = h_base - t^4 * h_first(1/t) = 1 + 2t + 3t^2.
    # Yet (base : first) = (x^2, y^3) and (base : second) = (x, y^3).
    R = make_ring(["x", "y", "z"], "Q", "grevlex")
    x, y, z = R.gens()
    return LinkedTriple(
        Ideal(R, [x**3, y**3]),
        Ideal(R, [x**2, x * y, x * z, y**3]),
        Ideal(R, [y**3, x**3, x**2 * y, x**2 * z]),
    )


def test_certificate_needs_first_cohen_macaulay(monkeypatch):
    triple = _non_cohen_macaulay_first_triple()
    assert [hilbert_data(I).h_vector for I in triple.ideals()] == [(1, 2, 3, 2, 1), (1, 2), (1, 2, 3)]
    calls = _count_colons(monkeypatch)
    # first's basis has four elements: the product route, whose
    # Cohen-Macaulay check refutes it
    products = _count_products(monkeypatch)
    report = verify_linked_triple(triple, seed=0)
    assert len(calls) == 2
    assert products == [(triple.first, triple.second)]
    assert report.gorenstein_ok and all(report.containments) and report.degree_additive
    assert not report.colon_first and not report.colon_second and not report.passed


def test_base_with_redundant_generators_takes_the_product_route(monkeypatch):
    # base = (x^2, y^2) given with x^2*y: three generators in codimension
    # two, and first = (x, y)^2 has a three-element basis.  Only c forms
    # generating a codimension c ideal are a regular sequence, so the
    # determinant route does not apply, although its square matrix exists;
    # the product route and a Cohen-Macaulay reduction of first certify it
    R = make_ring(["x", "y"], "Q", "grevlex")
    x, y = R.gens()
    triple = LinkedTriple(
        Ideal(R, [x**2, y**2, x**2 * y]), Ideal(R, [x**2, x * y, y**2]), Ideal(R, [x, y])
    )
    calls = _count_colons(monkeypatch)
    products = _count_products(monkeypatch)
    assert verify_linked_triple(triple, seed=0).passed
    assert calls == []
    assert products == [(triple.first, triple.second)]


def test_certificate_declines_a_first_with_a_longer_h_vector(monkeypatch):
    # first = (x^2, y^2, x*y*z) has h-vector 1, 2, 1, -1, longer than base's
    # 1, 2, 1: no shift of it predicts second's h-vector, so the certificate
    # declines before computing one, and the colons decide.  second is
    # (base : first), but (base : second) = (x, y)^2 is not first
    R = make_ring(["x", "y", "z"], "Q", "grevlex")
    x, y, z = R.gens()
    triple = LinkedTriple(
        Ideal(R, [x**2, y**2]), Ideal(R, [x**2, y**2, x * y * z]), Ideal(R, [x, y])
    )
    assert [hilbert_data(I).h_vector for I in triple.ideals()] == [(1, 2, 1), (1, 2, 1, -1), (1,)]

    def unreachable(*args):
        raise AssertionError("the certificate predicted an h-vector")

    monkeypatch.setattr(linkage, "sub_shifted", unreachable)
    assert _certified(triple, 0) is False
    calls = _count_colons(monkeypatch)
    report = verify_linked_triple(_fresh(triple), seed=0)
    assert len(calls) == 2
    assert report.gorenstein_ok and all(report.containments)
    assert report.colon_first and not report.colon_second and not report.passed


def _count_artinian_reductions(monkeypatch):
    calls = []
    artinian_reduce = localrings.artinian_reduce

    def counting(I, seed=0):
        calls.append(I)
        return artinian_reduce(I, seed=seed)

    monkeypatch.setattr(localrings, "artinian_reduce", counting)
    return calls


def test_complete_intersections_take_no_artinian_reduction(fossum, monkeypatch):
    # base and first of a CI triple are graded complete intersections, so
    # neither the Gorenstein verdict nor the certificate slices; a first
    # that is not one still takes its Cohen-Macaulay check from a reduction
    calls = _count_artinian_reductions(monkeypatch)
    assert verify_linked_triple(_fresh(fossum), seed=0).passed
    assert calls == []
    triple = _non_cohen_macaulay_first_triple()
    assert verify_linked_triple(triple, seed=0).gorenstein_ok
    assert calls == [triple.first]


def _held_out_triples(count, field="F31"):
    """count CI-linked triples over field from the held-out seed 1001,
    cycling through 2, 3 and 4 variables."""
    names = (["x1", "x2"], ["x", "y", "z"], ["x", "y", "z", "u"])
    rings = [make_ring(n, field, "grevlex") for n in names]
    rng = random.Random(1001)
    triples = []
    while len(triples) < count:
        triple = random_ci_linked_triple(rings[len(triples) % 3], rng, max_degree=2)
        if triple is not None:
            triples.append(triple)
    return triples


def _reports_both_ways(triple, seed, monkeypatch):
    """verify_linked_triple's report with the certificate, then with the
    colons alone, and the number of products the first run built."""
    outcomes = []
    for certificate in (linkage._linked_by_certificate, lambda *args: False):
        with monkeypatch.context() as patch:
            patch.setattr(linkage, "_linked_by_certificate", certificate)
            products = _count_products(patch)
            report = verify_linked_triple(_fresh(triple), seed=seed).as_dict()
            outcomes.append((report, len(products)))
    (with_certificate, built), (with_colons, _) = outcomes
    return with_certificate, with_colons, built


def _certified(triple, seed):
    """_linked_by_certificate with the quotients verify_linked_triple passes:
    base's generators divided by first's reduced basis."""
    base, first, _ = triple.ideals()
    quotients = [divide(g, first.groebner())[0] for g in base.gens]
    return linkage._linked_by_certificate(triple, quotients, seed)


def test_triple_certificate_agrees_with_colons_on_held_out_triples(monkeypatch):
    for field, count in (("F31", 40), ("F5", 20), ("Q", 20)):
        rejected = wrong_seconds = 0
        for k, triple in enumerate(_held_out_triples(count, field)):
            fresh = _fresh(triple)
            base, first, second = fresh.ideals()
            ring = base.ring
            colons = (
                ideal_equal(ideal_colon(base, first), second),
                ideal_equal(ideal_colon(base, second), first),
            )
            assert colons == (True, True)
            assert _certified(fresh, k)
            with_certificate, with_colons, products = _reports_both_ways(triple, k, monkeypatch)
            assert with_certificate == with_colons and with_colons["passed"]
            # base and first are complete intersections: the determinant route
            assert products == 0, (field, k)
            # mutants: drop one generator of second, keeping base inside it
            for j in range(len(second.gens)):
                kept = second.gens[:j] + second.gens[j + 1 :]
                mutant = LinkedTriple(base, first, Ideal(ring, base.gens + kept))
                with_certificate, with_colons, _ = _reports_both_ways(mutant, k, monkeypatch)
                assert with_certificate == with_colons, (field, k, j)
                rejected += not with_colons["passed"]
            # mutant: base with a redundant generator is no longer read as a
            # complete intersection, so the certificate takes the product route
            x = ring.variable(ring.variables[0])
            redundant = LinkedTriple(Ideal(ring, base.gens + (x * base.gens[0],)), first, second)
            with_certificate, with_colons, products = _reports_both_ways(redundant, k, monkeypatch)
            assert with_certificate == with_colons and with_colons["passed"], (field, k)
            assert products == 1, (field, k)
            # mutant: a wrong second with the right h-vector.  With first =
            # (f1, f2) and base* = (h1*f1, h2*f2), deg h_i = deg f_i, base*
            # lies in first and in (h1, f2), two complete intersections of
            # the same degrees; their links base* + (h1*h2) and
            # base* + (f1*h2) share an h-vector, and det C = h1*h2 is not in
            # the second one unless the two links are equal
            f1, f2 = first.groebner().elements
            rng = random.Random(f"wrong second {field} {k}")
            h1, h2 = (random_form_dense(ring, f.total_degree(), rng) for f in (f1, f2))
            star = Ideal(ring, [h1 * f1, h2 * f2])
            if hilbert_data(star).krull_dimension != hilbert_data(first).krull_dimension:
                continue
            right, wrong = (Ideal(ring, [*star.gens, h * h2]) for h in (h1, f1))
            assert hilbert_data(wrong).h_vector == hilbert_data(right).h_vector
            assert _certified(LinkedTriple(star, first, right), k)
            if ideal_equal(wrong, right):
                continue
            mutant = LinkedTriple(star, first, wrong)
            assert not _certified(mutant, k), (field, k)
            with_certificate, with_colons, products = _reports_both_ways(mutant, k, monkeypatch)
            assert with_certificate == with_colons and not with_colons["passed"], (field, k)
            assert products == 0
            wrong_seconds += 1
        assert rejected >= count // 2, field
        assert wrong_seconds >= count // 2, field


def test_determinant_route_builds_no_basis_of_base(fossum):
    # two forms whose plane section shares no zero get their Hilbert data in
    # closed form, and the determinant route reads only base's generators:
    # verifying the triple never builds base's Groebner basis
    routed = 0
    for k, triple in enumerate([fossum, *_held_out_triples(12)]):
        probe = Ideal(triple.base.ring, triple.base.gens)
        hilbert_data(probe)
        if probe._gb is not None:
            continue
        fresh = _fresh(triple)
        assert verify_linked_triple(fresh, seed=k).passed
        assert fresh.base._gb is None, k
        routed += 1
    assert routed >= 10


def test_facts_about_second_do_not_make_base_a_complete_intersection():
    # base = (x*z, y*z) = z*(x, y) has codimension 1, yet second holds
    # det C = z^2, contains base, has codimension 2 and the h-vector (1, 2)
    # that linkage predicts from base's degrees, (1, 2, 1) - t^2 * (1).
    # Neither form survives on the plane z = 0, so base's Hilbert data come
    # from its basis and the dimension check refuses the triple
    R = make_ring(["x", "y", "z"], "Q", "grevlex")
    x, y, z = R.gens()
    triple = LinkedTriple(
        Ideal(R, [x * z, y * z]), Ideal(R, [x, y]), Ideal(R, [z**2, x * z, y * z, x**3 + y**3])
    )
    assert hilbert_data(triple.second).h_vector == (1, 2)
    with pytest.raises(ValueError, match=r"dimension mismatch between the three ideals: \(2, 1, 1\)"):
        verify_linked_triple(triple, seed=0)


def test_triple_report_is_invariant_under_the_presentation_of_base():
    # shuffling base's generators and scaling them by units, or adding the
    # redundant generator g1*x1, present the same ideal, so every field of
    # the report stays the same.  Three generators leave base outside the
    # closed-form Hilbert data and the determinant route: that report comes
    # from base's basis and the product route
    for field, count in (("F31", 40), ("F5", 20), ("Q", 20)):
        rng = random.Random(f"base presentation {field}")
        for k, triple in enumerate(_held_out_triples(count, field)):
            ring, base = triple.base.ring, triple.base
            expected = verify_linked_triple(_fresh(triple), seed=k).as_dict()
            units = ring.field.random_sample()
            shuffled = [g.scale(rng.choice(units)) for g in rng.sample(base.gens, len(base.gens))]
            redundant = Ideal(ring, [*base.gens, base.gens[0] * ring.gens()[0]])
            for presented in (Ideal(ring, shuffled), redundant):
                fresh = _fresh(triple)
                report = verify_linked_triple(LinkedTriple(presented, fresh.first, fresh.second), seed=k)
                assert report.as_dict() == expected, (field, k)
            assert redundant._gb is not None


def _changed_coordinates(I, A):
    """The image of I under the linear change x_i -> sum_j A[i][j] x_j."""
    ring = I.ring
    x = ring.gens()
    images = [sum((v.scale(a) for v, a in zip(x, row)), Polynomial.zero(ring)) for row in A]
    assignment = dict(zip(ring.variables, images))
    return Ideal(ring, [substitute(g, assignment) for g in I.gens])


def test_triple_report_is_invariant_under_a_linear_change_of_coordinates(monkeypatch):
    # an invertible linear change of coordinates is a graded automorphism
    # fixing the origin: it maps the three ideals, their colons and the
    # local ring at the origin along, so every field of the report stays
    # the same.  The mutant drops a generator of second.  The new
    # coordinates give the determinant route dense quotients, and a linked
    # image still takes it
    names = (["x1", "x2"], ["x", "y", "z"], ["x", "y", "z", "u"])
    verdicts = set()
    for field in ("F31", "Q"):
        rings = [make_ring(n, field, "grevlex") for n in names]
        rng = random.Random(1003)
        sample = rings[0].field.random_sample()
        for k in range(12):
            ring = rings[k % 3]
            triple = None
            while triple is None:
                triple = random_ci_linked_triple(ring, rng, max_degree=2)
            n = ring.nvars
            A = [[rng.choice(sample) for _ in range(n)] for _ in range(n)]
            while rank(A, ring.field) < n:
                A = [[rng.choice(sample) for _ in range(n)] for _ in range(n)]
            base, first, second = triple.ideals()
            mutant = LinkedTriple(base, first, Ideal(ring, base.gens + second.gens[1:]))
            for t in (triple, mutant):
                expected = verify_linked_triple(_fresh(t), seed=k).as_dict()
                moved = LinkedTriple(*(_changed_coordinates(I, A) for I in t.ideals()))
                with monkeypatch.context() as patch:
                    products = _count_products(patch)
                    assert verify_linked_triple(moved, seed=k).as_dict() == expected, (field, k)
                if t is triple:
                    assert expected["passed"] and products == [], (field, k)
                verdicts.add(expected["passed"])
    assert verdicts == {True, False}
