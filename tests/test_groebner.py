import random

import pytest

from liaison import (
    Ideal,
    Polynomial,
    buchberger,
    make_ring,
    normal_form,
)
from liaison.groebner import s_polynomial


def _random_poly(ring, rng, max_terms=3, max_exp=2):
    pool = (
        list(range(-3, 4))
        if ring.field.characteristic == 0
        else list(range(ring.field.characteristic))
    )
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        terms[e] = rng.choice(pool)
    return Polynomial.from_dict(ring, terms)


def test_normal_form_in_principal_ideal():
    R = make_ring(["x", "y"], "Q", "grevlex")
    x, y = R.gens()
    G = buchberger([x])
    assert normal_form(x**2, G).is_zero()


def test_normal_form_hand_reduction():
    R = make_ring(["x1", "x2"], "Q", "lex")
    x1, x2 = R.gens()
    G = buchberger([x1**2 + x1 * x2, x2**2])
    assert normal_form(x1**2, G) == -(x1 * x2)


def test_normal_form_membership_oracle():
    # f built as an explicit combination of the generators reduces to zero
    rng = random.Random(23)
    R = make_ring(["x", "y", "z"], "F31", "grevlex")
    for _ in range(30):
        gens = [_random_poly(R, rng) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        G = buchberger(gens)
        f = Polynomial.zero(R)
        for g in gens:
            f = f + _random_poly(R, rng) * g
        assert normal_form(f, G).is_zero()


def test_normal_form_no_reducible_terms():
    rng = random.Random(29)
    R = make_ring(["x", "y"], "Q", "grevlex")
    for _ in range(20):
        gens = [p for p in (_random_poly(R, rng) for _ in range(2)) if not p.is_zero()]
        if not gens:
            continue
        G = buchberger(gens)
        f = _random_poly(R, rng)
        r = f if not G.elements else normal_form(f, G)
        lms = G.leading_monomials()
        for e in r.terms:
            assert not any(all(a <= b for a, b in zip(lm, e)) for lm in lms)


def test_buchberger_fossum_input_is_basis():
    R = make_ring(["x1", "x2"], "Q", "lex")
    x1, x2 = R.gens()
    G = buchberger([x1**2 + x1 * x2, x2**2])
    assert set(G.elements) == {x1**2 + x1 * x2, x2**2}


def test_buchberger_linear_cleanup():
    R = make_ring(["x", "y"], "Q", "grevlex")
    x, y = R.gens()
    G = buchberger([x, x + y])
    assert set(G.elements) == {x, y}


def test_buchberger_double_line_dimension():
    from liaison import hilbert_data

    R = make_ring(["x", "y", "z", "u"], "Q", "grevlex")
    x, y, z, u = R.gens()
    I = Ideal(R, [z * x + u * y, x**2, x * y, y**2])
    data = hilbert_data(I)
    assert data.krull_dimension == 2  # cone over a curve
    assert data.projective_dimension == 1


def test_reduced_basis_canonical_under_permutation():
    rng = random.Random(31)
    R = make_ring(["x", "y", "z"], "F31", "grevlex")
    for _ in range(25):
        gens = [p for p in (_random_poly(R, rng) for _ in range(rng.randint(2, 4))) if not p.is_zero()]
        if not gens:
            continue
        G1 = buchberger(list(gens))
        shuffled = list(gens)
        rng.shuffle(shuffled)
        G2 = buchberger(shuffled)
        assert G1.elements == G2.elements


def test_criteria_are_safe_pruning():
    rng = random.Random(37)
    R = make_ring(["x", "y", "z"], "F31", "grevlex")
    for _ in range(15):
        gens = [p for p in (_random_poly(R, rng) for _ in range(3)) if not p.is_zero()]
        if not gens:
            continue
        with_criteria = buchberger(gens, use_criteria=True)
        without = buchberger(gens, use_criteria=False)
        assert with_criteria.elements == without.elements


def test_basis_elements_lie_in_ideal():
    # re-check membership through an independently recomputed, permuted basis
    rng = random.Random(41)
    R = make_ring(["x", "y", "z"], "F31", "grevlex")
    for _ in range(10):
        gens = [p for p in (_random_poly(R, rng) for _ in range(3)) if not p.is_zero()]
        if not gens:
            continue
        G = buchberger(gens)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        recheck = buchberger(shuffled)
        for g in gens:
            assert normal_form(g, G).is_zero()
        for b in G.elements:
            assert normal_form(b, recheck).is_zero()


def test_spoly_reduces_to_zero_for_basis():
    R = make_ring(["x1", "x2"], "Q", "lex")
    x1, x2 = R.gens()
    G = buchberger([x1**2 + x1 * x2, x2**2])
    for i in range(len(G.elements)):
        for j in range(i + 1, len(G.elements)):
            s = s_polynomial(G.elements[i], G.elements[j])
            assert normal_form(s, G).is_zero()


def test_mixed_rings_rejected():
    R1 = make_ring(["x"], "Q")
    R2 = make_ring(["y"], "Q")
    with pytest.raises(ValueError):
        buchberger([R1.variable("x"), R2.variable("y")])
