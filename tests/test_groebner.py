import random
import sys
from pathlib import Path

import pytest

import liaison.groebner
import liaison.ideals
from liaison import (
    GroebnerBasis,
    Ideal,
    MonomialOrder,
    Polynomial,
    buchberger,
    double_line_ideal,
    ideal_colon,
    ideal_intersect,
    local_mu,
    make_ring,
    normal_form,
    parse_session,
)
from liaison.groebner import _entry, _s_poly, divide, elimination_basis, syzygy_values
from liaison.polynomials import mono_lcm

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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


def _assert_criteria_safe(R, seed):
    rng = random.Random(seed)
    for _ in range(15):
        gens = [p for p in (_random_poly(R, rng) for _ in range(3)) if not p.is_zero()]
        if not gens:
            continue
        with_criteria = buchberger(gens, use_criteria=True)
        without = buchberger(gens, use_criteria=False)
        assert with_criteria.elements == without.elements


def test_criteria_are_safe_pruning():
    _assert_criteria_safe(make_ring(["x", "y", "z"], "F31", "grevlex"), 37)


@pytest.mark.parametrize(
    "field, order",
    [("Q", "lex"), ("F31", MonomialOrder("block", 1))],
    ids=["lex-Q", "block1-F31"],
)
def test_criteria_are_safe_pruning_in_other_orders(field, order):
    # block(1) is the order ideal_intersect eliminates in
    _assert_criteria_safe(make_ring(["x", "y", "z"], field, order), 43)


@pytest.mark.parametrize("field", ["F31", "F5", "Q"])
@pytest.mark.parametrize(
    "order", ["grevlex", "lex", MonomialOrder("block", 1)], ids=["grevlex", "lex", "block1"]
)
def test_reduce_stores_the_leading_term_first(field, order):
    # buchberger reads a remainder's leading monomial off its first key
    rng = random.Random(47)
    R = make_ring(["x", "y", "z"], field, order)
    x = R.variable("x")
    kinds = set()
    for _ in range(12):
        # multiples of x: the ideal is proper, so a constant stays a remainder
        gens = [x * p for p in (_random_poly(R, rng) for _ in range(3)) if not p.is_zero()]
        if not gens:
            continue
        G = buchberger(gens)
        reducers = [(g.leading_monomial(), g) for g in G]
        member = _random_poly(R, rng) * G.elements[0]
        for f in (_random_poly(R, rng, max_terms=6), member, member + 2):
            r = liaison.groebner._reduce(f, reducers)
            # normal_form makes the elements of a basis built by hand monic
            assert r == normal_form(f, G) == normal_form(f, GroebnerBasis(R, [g.scale(3) for g in G]))
            if r.is_zero():
                kinds.add("zero")
                continue
            kinds.add("constant" if r.total_degree() == 0 else "other")
            assert next(iter(r.terms)) == r.leading_monomial()
    assert kinds == {"zero", "constant", "other"}


@pytest.mark.parametrize("field", ["F31", "F5", "Q"])
@pytest.mark.parametrize(
    "order", ["grevlex", "lex", MonomialOrder("block", 1)], ids=["grevlex", "lex", "block1"]
)
def test_divide_gives_the_normal_form_and_a_standard_representation(field, order):
    # f = sum q_k g_k + r with r the normal form and no q_k g_k above f,
    # for reduced bases and for the same bases with leading coefficient 3
    rng = random.Random(59)
    R = make_ring(["x", "y", "z"], field, order)
    kinds = set()
    for _ in range(10):
        gens = [p for p in (_random_poly(R, rng) for _ in range(3)) if not p.is_zero()]
        if not gens:
            continue
        G = buchberger(gens)
        member = Polynomial.zero(R)
        for g in gens:
            member = member + _random_poly(R, rng) * g
        for basis in (G, GroebnerBasis(R, [g.scale(3) for g in G])):
            for f in (Polynomial.zero(R), _random_poly(R, rng, max_terms=6), member):
                quotients, r = divide(f, basis)
                assert len(quotients) == len(basis)
                assert r == normal_form(f, basis)
                total = r
                for q, g in zip(quotients, basis):
                    total = total + q * g
                    if not q.is_zero():
                        assert R.heap_key((q * g).leading_monomial()) >= R.heap_key(f.leading_monomial())
                assert total == f
                if f.is_zero():
                    kinds.add("zero")
                    assert all(q.is_zero() for q in quotients)
                else:
                    kinds.add("member" if r.is_zero() else "remainder")
    assert kinds == {"zero", "member", "remainder"}


def test_divide_needs_a_groebner_basis_of_its_ring():
    R = make_ring(["x", "y"], "Q", "grevlex")
    S = make_ring(["u", "v"], "Q", "grevlex")
    x, y = R.gens()
    with pytest.raises(ValueError, match="different rings"):
        divide(S.variable("u"), buchberger([x, y]))
    with pytest.raises(TypeError, match="expects a GroebnerBasis"):
        divide(x**2, [x])


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


def _s_polynomial(f, g):
    """The S-polynomial the S-pair loop builds: _s_poly on the monic entries."""
    a, b = _entry(f), _entry(g)
    return _s_poly(a, b, mono_lcm(a[0], b[0]))


def test_spoly_reduces_to_zero_for_basis():
    R = make_ring(["x1", "x2"], "Q", "lex")
    x1, x2 = R.gens()
    G = buchberger([x1**2 + x1 * x2, x2**2])
    for i in range(len(G.elements)):
        for j in range(i + 1, len(G.elements)):
            s = _s_polynomial(G.elements[i], G.elements[j])
            assert normal_form(s, G).is_zero()


def _textbook_s_polynomial(f, g):
    """lcm/lt(f)*f - lcm/lt(g)*g, from the definition."""
    ring, field = f.ring, f.ring.field
    (lmf, lcf), (lmg, lcg) = f.leading_term(), g.leading_term()
    lcm = tuple(max(a, b) for a, b in zip(lmf, lmg))
    mf = Polynomial.monomial(ring, [a - b for a, b in zip(lcm, lmf)], field.inv(lcf))
    mg = Polynomial.monomial(ring, [a - b for a, b in zip(lcm, lmg)], field.inv(lcg))
    return mf * f - mg * g


@pytest.mark.parametrize("field", ["Q", "F31"])
def test_s_polynomial_matches_the_textbook_formula(field):
    rng = random.Random(47)
    R = make_ring(["x", "y", "z"], field, "grevlex")
    checked = 0
    for _ in range(60):
        f, g = _random_poly(R, rng, max_terms=4), _random_poly(R, rng, max_terms=4)
        if f.is_zero() or g.is_zero():
            continue
        # leading coefficients 2, 3, -5 or 7, never one
        f, g = (h.monic().scale(rng.choice([2, 3, -5, 7])) for h in (f, g))
        expected = _textbook_s_polynomial(f, g)
        assert _s_polynomial(f, g) == expected
        assert _s_polynomial(f.monic(), g.monic()) == expected
        lcm = tuple(max(a, b) for a, b in zip(f.leading_monomial(), g.leading_monomial()))
        assert lcm not in expected.terms
        checked += 1
    assert checked > 40


def _seeded_gens(R, seed, count):
    rng = random.Random(seed)
    return [p for p in (_random_poly(R, rng, max_terms=4) for _ in range(count)) if not p.is_zero()]


# S-pairs reduced under normal selection with Gebauer-Moeller pruning, as
# counted with a plain pair set scanned by min: the pair queue must match it
PINNED_PAIR_COUNTS = {
    "Y": 0,  # (x^2, y^2): the product criterion prunes the only pair
    # ideal_intersect also enters the minimal lcms of the monomial generators;
    # that monomial part is a Groebner basis (the lemma of ideal_intersect's
    # docstring), so only pairs with the other generators are formed
    "meeting I1 cap I2": 13,
    # the same t-trick generators, every one fed as gens with no basis
    "meeting I1 cap I2, no basis": 25,
    # each intersection of the colon chain enters its monomial part as a
    # basis (the same lemma)
    "Y : I1": 30,
    "grevlex F31": 18,
    "block F31": 37,
    "block F31, no criteria": 253,
    # S-pairs of the basis of U that local_mu reduces for its syzygies, U the
    # union I1 cap I2, read at P
    "local mu M1/M2 at P": 6,
    "local mu V1/V2 at P": 4,
    "lex F31": 38,
    "grevlex Q": 34,
}


def test_pair_work_is_pinned(monkeypatch):
    # Selected and pruned pairs are fixed by normal selection and the
    # Gebauer-Moeller criteria: a pair queue that reduced a pruned pair or
    # picked in another order would change these counts.
    calls = []
    real = liaison.groebner._reduce

    def counting(f, reducers, exact=None):
        # one call per S-pair comes from the S-pair loop's or
        # syzygy_values' own frame; the final interreduction and
        # normal_form are not counted
        loop = liaison.groebner._minimal_entries.__code__
        if sys._getframe(1).f_code in (loop, syzygy_values.__code__):
            calls.append(f)
        return real(f, reducers, exact)

    def pairs_reduced(compute):
        calls.clear()
        compute()
        return len(calls)

    session = parse_session((FIXTURES / "double_lines.session").read_text())

    def local_mu_at_meeting(a, b):
        # the union at the meeting point, its basis held from the
        # intersection, so that only the S-pairs local_mu reduces for the
        # syzygies are counted
        U = ideal_intersect(*(double_line_ideal(session.dlines[name]) for name in (a, b)))
        U.groebner()
        return lambda: local_mu(U, session.points["P"])

    def t_trick_generators(I, J):
        # every polynomial ideal_intersect hands to elimination_basis, its
        # monomial part first
        handed = []

        def handing(gens, basis=()):
            handed.extend([*basis, *gens])
            return elimination_basis(gens, basis)

        with monkeypatch.context() as patch:
            patch.setattr(liaison.ideals, "elimination_basis", handing)
            ideal_intersect(I, J)
        return handed

    meeting_mu = local_mu_at_meeting("M1", "M2")
    violating_mu = local_mu_at_meeting("V1", "V2")
    I1 = double_line_ideal(session.dlines["M1"])
    I2 = double_line_ideal(session.dlines["M2"])
    meeting_t_trick = t_trick_generators(I1, I2)
    monkeypatch.setattr(liaison.groebner, "_reduce", counting)
    Y, J1 = session.ideals["Y"], session.ideals["I1"]
    grevlex = make_ring(["x", "y", "z", "u"], "F31", "grevlex")
    block = make_ring(["t", "x", "y", "z"], "F31", MonomialOrder("block", 1))
    lex = make_ring(["x", "y", "z", "u"], "F31", "lex")
    rational = make_ring(["x", "y", "z", "u"], "Q", "grevlex")
    counts = {
        "Y": pairs_reduced(lambda: buchberger(Y.gens)),
        "meeting I1 cap I2": pairs_reduced(lambda: ideal_intersect(I1, I2)),
        "meeting I1 cap I2, no basis": pairs_reduced(lambda: elimination_basis(meeting_t_trick)),
        "Y : I1": pairs_reduced(lambda: ideal_colon(Y, J1)),
        "grevlex F31": pairs_reduced(lambda: buchberger(_seeded_gens(grevlex, 53, 4))),
        "block F31": pairs_reduced(lambda: buchberger(_seeded_gens(block, 61, 4))),
        "block F31, no criteria": pairs_reduced(
            lambda: buchberger(_seeded_gens(block, 61, 4), use_criteria=False)
        ),
        "local mu M1/M2 at P": pairs_reduced(meeting_mu),
        "local mu V1/V2 at P": pairs_reduced(violating_mu),
        "lex F31": pairs_reduced(lambda: buchberger(_seeded_gens(lex, 101, 4))),
        "grevlex Q": pairs_reduced(lambda: buchberger(_seeded_gens(rational, 110, 4))),
    }
    assert counts == PINNED_PAIR_COUNTS


def test_mixed_rings_rejected():
    R1 = make_ring(["x"], "Q")
    R2 = make_ring(["y"], "Q")
    with pytest.raises(ValueError):
        buchberger([R1.variable("x"), R2.variable("y")])


def test_buchberger_rejects_non_polynomials_and_drops_zeros():
    R = make_ring(["x", "y"], "Q", "grevlex")
    x, y = R.gens()
    with pytest.raises(TypeError, match="must be polynomials"):
        buchberger([x, 3])
    gb = buchberger([Polynomial.zero(R), Polynomial.zero(R)])
    assert gb.ring == R
    assert gb.elements == ()


def test_normal_form_needs_a_groebner_basis_of_its_ring():
    R = make_ring(["x", "y"], "Q", "grevlex")
    S = make_ring(["u", "v"], "Q", "grevlex")
    x, y = R.gens()
    with pytest.raises(ValueError, match="different rings"):
        normal_form(S.variable("u"), buchberger([x, y]))
    with pytest.raises(TypeError, match="expects a GroebnerBasis"):
        normal_form(x**2, [x])


def test_syzygy_values_rejects_a_non_groebner_basis():
    # S(x^2 - y, xy) = -y^2, which neither leading monomial divides
    R = make_ring(["x", "y"], "Q", "grevlex")
    x, y = R.gens()
    with pytest.raises(ValueError, match="needs a Groebner basis"):
        syzygy_values(GroebnerBasis(R, [x**2 - y, x * y]), (0, 0))


def test_elimination_basis_needs_a_block_order():
    R = make_ring(["t", "x"], "Q", "grevlex")
    t, x = R.gens()
    with pytest.raises(ValueError, match="block order"):
        elimination_basis([t * x, x**2])
    with pytest.raises(ValueError, match="at least one generator"):
        elimination_basis([])
