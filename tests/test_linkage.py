import random
import sys

import pytest

from liaison import (
    Ideal,
    LinkedTriple,
    doubling_check,
    hilbert_data,
    ideal_colon,
    ideal_equal,
    link,
    make_ring,
    regular_element_transfer_test,
    socle_lemma_test,
    verify_linked_triple,
)
from liaison import ideals, linkage, localrings
from liaison.generators import random_ci_linked_triple
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


def test_doubling_examples():
    R = make_ring(["x", "y", "z"], "Q", "grevlex")
    x, y, z = R.gens()
    assert doubling_check(Ideal(R, [x**2, y]), Ideal(R, [x, y]))
    assert doubling_check(Ideal(R, [x**2, y**2]), Ideal(R, [x, y**2]))


def test_doubling_computes_each_hilbert_series_once(monkeypatch):
    # link() needs both Hilbert series for its dimension check and the
    # degree comparison reads them again: each ideal holds its own
    from liaison import ideals

    top_level = []
    depth = [0]
    numerator = ideals._numerator

    def counting(mingens):
        if depth[0] == 0:
            top_level.append(mingens)
        depth[0] += 1
        try:
            return numerator(mingens)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ideals, "_numerator", counting)
    R = make_ring(["x", "y", "z", "u"], "Q", "grevlex")
    x, y, z, u = R.gens()
    assert doubling_check(Ideal(R, [x**2, y]), Ideal(R, [x, y]))
    assert len(top_level) == 2


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


def _fresh(triple):
    """The same triple with no cached Groebner basis or Hilbert data."""
    return LinkedTriple(*(Ideal(I.ring, I.gens) for I in triple.ideals()))


def test_certified_fossum_triple_makes_no_colon(fossum, monkeypatch):
    calls = _count_colons(monkeypatch)
    report = verify_linked_triple(_fresh(fossum), seed=0)
    assert report.colon_first and report.colon_second and report.passed
    assert calls == []


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
        "dimensions_equal": True,
        "degrees": [4, 2, 2],
        "degree_additive": True,
        "points_tested": ["(0,0,0,0)"],
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
    report = verify_linked_triple(triple, seed=0)
    assert len(calls) == 2
    assert report.gorenstein_ok and all(report.containments) and report.degree_additive
    assert not report.colon_first and not report.colon_second and not report.passed


def _count_artinian_reductions(monkeypatch):
    calls = []
    artinian_reduce = localrings.artinian_reduce

    def counting(I, seed=0):
        calls.append(I)
        return artinian_reduce(I, seed=seed)

    for module in (linkage, localrings):
        monkeypatch.setattr(module, "artinian_reduce", counting)
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


def _held_out_triples(count):
    """count CI-linked F31 triples from the held-out seed 1001, cycling
    through 2, 3 and 4 variables."""
    names = (["x1", "x2"], ["x", "y", "z"], ["x", "y", "z", "u"])
    rings = [make_ring(n, "F31", "grevlex") for n in names]
    rng = random.Random(1001)
    triples = []
    while len(triples) < count:
        triple = random_ci_linked_triple(rings[len(triples) % 3], rng, max_degree=2)
        if triple is not None:
            triples.append(triple)
    return triples


def _reports_both_ways(triple, seed, monkeypatch):
    """verify_linked_triple's report with the certificate, then with the
    colons alone."""
    outcomes = []
    for certificate in (linkage._linked_by_certificate, lambda *args: False):
        with monkeypatch.context() as patch:
            patch.setattr(linkage, "_linked_by_certificate", certificate)
            outcomes.append(verify_linked_triple(_fresh(triple), seed=seed).as_dict())
    return outcomes


def test_triple_certificate_agrees_with_colons_on_held_out_triples(monkeypatch):
    rejected = 0
    for k, triple in enumerate(_held_out_triples(40)):
        fresh = _fresh(triple)
        base, first, second = fresh.ideals()
        colons = (
            ideal_equal(ideal_colon(base, first), second),
            ideal_equal(ideal_colon(base, second), first),
        )
        assert colons == (True, True)
        assert linkage._linked_by_certificate(fresh, k)
        with_certificate, with_colons = _reports_both_ways(triple, k, monkeypatch)
        assert with_certificate == with_colons and with_colons["passed"]
        # mutants: drop one generator of second, keeping base inside it
        for j in range(len(second.gens)):
            kept = second.gens[:j] + second.gens[j + 1 :]
            mutant = LinkedTriple(base, first, Ideal(base.ring, base.gens + kept))
            with_certificate, with_colons = _reports_both_ways(mutant, k, monkeypatch)
            assert with_certificate == with_colons, (k, j)
            rejected += not with_colons["passed"]
    assert rejected >= 20
