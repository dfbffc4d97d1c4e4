"""Every intersection certified by Hilbert functions, with no t and no block
order: seeded homogeneous pairs over F31, F5 and Q (random forms, monomial
ideals and meeting double-line pairs), and the intersections of
ideal_colon's chain on seeded colons.

For homogeneous I and J the sequence of graded R-modules

    0 -> R/(I cap J) -> R/I (+) R/J -> R/(I + J) -> 0,

f -> (f, f) and (f, g) -> f - g, is exact, so in every degree
HF(R/(I cap J)) = HF(R/I) + HF(R/J) - HF(R/(I + J)); over (1-t)^n the
Hilbert numerators obey N_(I cap J) = N_I + N_J - N_(I+J).  A computed
graded K with K inside I and inside J lies in I cap J, so R/K maps onto
R/(I cap J) in every degree; if N_K is that sum too, the two quotients
have the same dimension in every degree, the map is an isomorphism, and
K = I cap J.  The check takes bases of I, J, I + J and K in the ring
itself, plus membership tests.
"""

import itertools
import random

import pytest

from liaison import (
    Ideal, double_line_ideal, hilbert_data, ideal_colon, ideal_equal, ideal_intersect, ideal_product,
    make_ring,
)
from liaison import ideals
from liaison.generators import random_form_dense, random_meeting_instance, random_monomial_ideal

FIELDS = ("F31", "F5", "Q")
BUCKETS = ("a", "b_hold", "b_violate", "one_sided")


def _polynomial(coefficients):
    coefficients = list(coefficients)
    while coefficients and coefficients[-1] == 0:
        coefficients.pop()
    return tuple(coefficients)


def _numerator(I):
    # a fresh ideal on I's generators, so that no held basis or Hilbert data enters
    return _polynomial(hilbert_data(Ideal(I.ring, I.gens)).numerator)


def _certified(I, J, K):
    """Whether graded K is I cap J, by containment and Hilbert numerators."""
    if not (K.is_homogeneous() and I.contains_ideal(K) and J.contains_ideal(K)):
        return False
    parts = [_numerator(I), _numerator(J), _numerator(Ideal(I.ring, [*I.gens, *J.gens]))]
    length = max(map(len, parts))
    n_i, n_j, n_sum = (list(p) + [0] * (length - len(p)) for p in parts)
    return _numerator(K) == _polynomial(a + b - c for a, b, c in zip(n_i, n_j, n_sum))


def _random_forms(R, rng):
    return Ideal(R, [random_form_dense(R, rng.randint(1, 2), rng) for _ in range(rng.randint(1, 3))])


def _pairs(field, rng):
    """Seeded homogeneous pairs of one field: random forms and monomial
    ideals in three and four variables, and the four meeting buckets twice."""
    for names in (["x", "y", "z"], ["x", "y", "z", "u"]):
        R = make_ring(names, field, "grevlex")
        for _ in range(5):
            yield _random_forms(R, rng), _random_forms(R, rng)
            yield (random_monomial_ideal(R, rng, max_gens=4, max_exp=2),
                   random_monomial_ideal(R, rng, max_gens=4, max_exp=2))
    R = make_ring(["x", "y", "z", "u"], field, "grevlex")
    for case in BUCKETS * 2:
        L1, L2 = random_meeting_instance(R, case, rng)
        yield double_line_ideal(L1), double_line_ideal(L2)


def _foils(K, rng):
    """K's reduced basis with one element dropped, where that leaves a
    smaller ideal (shown by ideal_equal); at most two per K."""
    basis = list(Ideal(K.ring, K.gens).groebner())
    dropped = rng.sample(range(len(basis)), len(basis))
    foils = (Ideal(K.ring, basis[:i] + basis[i + 1:]) for i in dropped)
    return list(itertools.islice((F for F in foils if not ideal_equal(F, K)), 2))


@pytest.mark.parametrize("field", FIELDS)
def test_every_intersection_is_certified_and_its_foils_are_not(field):
    rng = random.Random(f"certified intersections {field}")
    pairs = foils = 0
    for k, (I, J) in enumerate(_pairs(field, rng)):
        K = ideal_intersect(I, J)
        assert _certified(I, J, K), (field, k, I, J)
        for F in _foils(K, rng):
            assert not _certified(I, J, F), (field, k, F)
            foils += 1
        pairs += 1
    assert pairs == 28 and foils >= 40, (pairs, foils)


@pytest.mark.parametrize("field", FIELDS)
def test_every_intersection_of_the_colon_chain_is_certified(field, monkeypatch):
    # each K_i = (I cap g_i*K_(i-1)) / g_i of ideal_colon's chain starts
    # from an intersection; the wrapper keeps each one for the certificate
    computed = []

    def recording_intersect(I, J):
        K = ideal_intersect(I, J)
        computed.append((I, J, K))
        return K

    monkeypatch.setattr(ideals, "ideal_intersect", recording_intersect)
    rng = random.Random(f"certified colons {field}")
    for names in (["x", "y", "z"], ["x", "y", "z", "u"]):
        R = make_ring(names, field, "grevlex")
        for _ in range(4):
            # (A*B : A) contains B
            A = Ideal(R, [random_form_dense(R, 1, rng) for _ in range(2)])
            ideal_colon(ideal_product(A, _random_forms(R, rng)), A)
            ideal_colon(random_monomial_ideal(R, rng, max_gens=4, max_exp=2),
                        random_monomial_ideal(R, rng, max_gens=2, max_exp=1))
    assert len(computed) >= 24, len(computed)
    for k, (I, J, K) in enumerate(computed):
        assert _certified(I, J, K), (field, k, I, J)
