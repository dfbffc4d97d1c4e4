"""Property tests of the ideal identities the linkage computations rely on,
on small ideals over F31 in two or three variables, on generated linked
triples over F31 in two to four variables, of the local Artinian
invariants against the origin component computed as a colon, and of the
socle lemma's dimensions against the colon-and-intersection formula.

Examples are derandomized, so the suite stays deterministic.
"""

import itertools
import random

import pytest

from liaison import (
    Ideal,
    LinkedTriple,
    Polynomial,
    buchberger,
    divide,
    hilbert_data,
    ideal_colon,
    ideal_equal,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    make_ring,
    socle_lemma_test,
    standard_monomials,
    substitute,
)
from liaison.generators import random_ci_linked_triple
from liaison.localrings import local_gorenstein
from test_localrings import _origin_component_invariants

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

RINGS = [make_ring(["x", "y"], "F31", "grevlex"), make_ring(["x", "y", "z"], "F31", "grevlex")]
TRIPLE_RINGS = [make_ring(["x", "y", "z", "u"][:n], "F31", "grevlex") for n in (2, 3, 4)]

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


def _polynomial(ring):
    """Nonzero polynomials without constant term, of degree at most 2, with
    one to three terms (so no generated ideal is the unit ideal)."""
    monomials = [e for e in itertools.product(range(3), repeat=ring.nvars) if 1 <= sum(e) <= 2]
    terms = st.dictionaries(st.sampled_from(monomials), st.integers(1, 30), min_size=1, max_size=3)
    return terms.map(lambda t: Polynomial.from_dict(ring, t))


@st.composite
def ideal_pair(draw):
    ring = draw(st.sampled_from(RINGS))
    gens = st.lists(_polynomial(ring), min_size=1, max_size=3)
    return Ideal(ring, draw(gens)), Ideal(ring, draw(gens))


@PROPERTY
@given(ideal_pair())
def test_colon_times_divisor_lies_in_ideal(pair):
    I, J = pair
    assume(not I.contains_ideal(J))  # otherwise (I : J) is the unit ideal
    assert I.contains_ideal(ideal_product(ideal_colon(I, J), J))


@PROPERTY
@given(ideal_pair())
def test_colon_is_the_intersection_of_colons_by_generators(pair):
    I, J = pair
    reference = None
    for g in J.gens:
        meet = ideal_intersect(I, Ideal(I.ring, [g]))
        principal = buchberger([g])
        quotients = []
        for w in meet.gens:
            (q,), remainder = divide(w, principal)
            # checked by multiplication, independently of the division
            assert remainder.is_zero() and q * g.monic() == w
            quotients.append(q)
        piece = Ideal(I.ring, quotients)
        reference = piece if reference is None else ideal_intersect(reference, piece)
    assert ideal_equal(ideal_colon(I, J), reference)


@PROPERTY
@given(st.data())
def test_colon_ignores_divisor_generator_order(data):
    I, J = data.draw(ideal_pair())
    shuffled = Ideal(J.ring, data.draw(st.permutations(J.gens)))
    assert ideal_colon(I, shuffled).gens == ideal_colon(I, J).gens


@PROPERTY
@given(ideal_pair())
def test_intersection_lies_in_both(pair):
    I, J = pair
    meet = ideal_intersect(I, J)
    assert I.contains_ideal(meet) and J.contains_ideal(meet)


@PROPERTY
@given(st.data())
def test_reduced_basis_ignores_generator_order(data):
    I, _ = data.draw(ideal_pair())
    shuffled = data.draw(st.permutations(I.gens))
    assert buchberger(shuffled).elements == buchberger(I.gens).elements


@st.composite
def linked_triple(draw):
    """A CI-linked triple (base, first, second) with base generators of degree
    at most 2, from a drawn ring and seed; degenerate draws are rejected."""
    ring = draw(st.sampled_from(TRIPLE_RINGS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    triple = random_ci_linked_triple(ring, rng, max_degree=2)
    assume(triple is not None)
    return triple


def _fresh(I):
    # a new Ideal without the cached basis, so each colon is computed anew
    return Ideal(I.ring, I.gens)


@PROPERTY
@given(linked_triple())
def test_linked_triple_colon_symmetry(triple):
    B, A1, A2 = (_fresh(I) for I in triple.ideals())
    assert ideal_equal(ideal_colon(B, A1), A2)
    assert ideal_equal(ideal_colon(B, A2), A1)


@PROPERTY
@given(linked_triple())
def test_linked_triple_degree_additivity(triple):
    hB, h1, h2 = (hilbert_data(_fresh(I)) for I in triple.ideals())
    assert hB.krull_dimension == h1.krull_dimension == h2.krull_dimension
    assert hB.degree == h1.degree + h2.degree


@st.composite
def origin_and_distant_component(draw):
    """A zero-dimensional monomial ideal Q0 and a primary ideal P at a
    rational point other than the origin (a shifted monomial ideal)."""
    ring = draw(st.sampled_from(RINGS))
    n = ring.nvars

    def artinian_monomials(max_exp):
        pure = [tuple(draw(st.integers(1, max_exp)) if j == i else 0 for j in range(n)) for i in range(n)]
        mixed = draw(st.lists(st.tuples(*[st.integers(0, max_exp - 1)] * n), max_size=2))
        return [Polynomial.monomial(ring, e) for e in pure + mixed if sum(e) > 0]

    point = draw(st.tuples(*[st.integers(0, 30)] * n).filter(any))
    shift = {v: x + c for v, x, c in zip(ring.variables, ring.gens(), point)}
    Q0 = Ideal(ring, artinian_monomials(3))
    P = Ideal(ring, [substitute(g, shift) for g in artinian_monomials(2)])
    return Q0, P


@PROPERTY
@given(origin_and_distant_component())
def test_artinian_invariants_ignore_distant_components(pair):
    Q0, P = pair
    I = ideal_intersect(Q0, P)
    invariants = local_gorenstein(I)
    assert invariants == local_gorenstein(Q0)
    assert invariants == _origin_component_invariants(I)


def _non_homogeneous_origin_component(ring, rng):
    """A zero-dimensional ideal at the origin in curved coordinates: an
    Artinian monomial ideal moved by the automorphism x_i -> x_i + a*x_(i+1)
    + b*x_(i+1)^2, which fixes the origin."""
    n = ring.nvars
    X = ring.gens()
    pure = [tuple(rng.randint(1, 3) if j == i else 0 for j in range(n)) for i in range(n)]
    mixed = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(0, 2))]
    move = {
        v: X[i] + X[i + 1].scale(rng.randint(0, 30)) + (X[i + 1] ** 2).scale(rng.randint(1, 30))
        if i + 1 < n
        else X[i]
        for i, v in enumerate(ring.variables)
    }
    return Ideal(ring, [substitute(Polynomial.monomial(ring, e), move) for e in pure + mixed if sum(e) > 0])


def _curved_ideals_with_distant_components(count, rng):
    """Seeded non-homogeneous ideals: a curved origin component met with one
    or two primary components away from the origin."""
    for k in range(count):
        ring = RINGS[k % 2]
        n = ring.nvars
        I = _non_homogeneous_origin_component(ring, rng)
        for _ in range(2 if k % 3 == 2 else 1):
            point = [rng.randint(0, 30) for _ in range(n)]
            point[rng.randrange(n)] = rng.randint(1, 30)
            shift = {v: x - c for v, x, c in zip(ring.variables, ring.gens(), point)}
            far = [tuple(rng.randint(1, 2) if j == i else 0 for j in range(n)) for i in range(n)]
            I = ideal_intersect(I, Ideal(ring, [substitute(Polynomial.monomial(ring, e), shift) for e in far]))
        yield I


def test_artinian_invariants_match_origin_component_on_curved_ideals():
    # the socle of the reduction's cut against the colon formula; (x^4, y)
    # has x nilpotent of index 4, its multiplicity e, and beside a distant
    # point its cut adds (x^(e+1), y^(e+1)), one power above that index
    ring = RINGS[0]
    x, y = ring.gens()
    full_index = Ideal(ring, [x**4, y])
    cases = [full_index, ideal_intersect(full_index, Ideal(ring, [x - 3, y - 5]))]
    cases += _curved_ideals_with_distant_components(30, random.Random(67))
    socles = set()
    for I in cases:
        invariants = local_gorenstein(I)
        assert invariants == _origin_component_invariants(I)
        socles.add(invariants[1])
    assert local_gorenstein(full_index) == (4, 1, True)
    assert all(not I.is_homogeneous() for I in cases[1:])
    assert len(socles) > 1


@st.composite
def socle_triple(draw):
    """An Artinian base in x, y (a CI-linked triple's base, or a random
    (g, x^a, y^b)) with two carriers, each the triple's link or a random
    (g, x^a, y^b); random carriers need not contain the base."""
    ring = RINGS[0]
    x, y = ring.gens()
    linked = random_ci_linked_triple(ring, random.Random(draw(st.integers(0, 2**32))))
    assume(linked is not None)

    def random_artinian():
        a, b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        return Ideal(ring, [draw(_polynomial(ring)), x**a, y**b])

    base = linked.base if draw(st.booleans()) else random_artinian()
    first = linked.first if draw(st.booleans()) else random_artinian()
    second = linked.second if draw(st.booleans()) else random_artinian()
    return LinkedTriple(base, first, second)


def _socle_dims_by_colon(triple):
    """(socle(B), image of (base : m) cap second, image of (base : m) cap
    first) as dimensions of (I + base)/base, from colon and intersections."""
    base, first, second = (_fresh(I) for I in triple.ideals())
    preimage = ideal_colon(base, Ideal(base.ring, base.ring.gens()))
    d = len(standard_monomials(base.groebner()))

    def image_dim(I):
        return d - len(standard_monomials(ideal_sum(I, base).groebner()))

    return (
        image_dim(preimage),
        image_dim(ideal_intersect(preimage, second)),
        image_dim(ideal_intersect(preimage, first)),
    )


@PROPERTY
@given(socle_triple())
def test_socle_lemma_dims_match_colon_formula(triple):
    report = socle_lemma_test(triple)
    expected = _socle_dims_by_colon(triple)
    assert report.dims == expected
    assert report.all_equal == (len(set(expected)) == 1)
