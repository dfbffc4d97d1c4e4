"""Seeded random instance builders for the verification campaigns.

Everything takes an explicit random.Random so campaigns are reproducible
and shardable; finite fields (p around 31) keep Groebner bases small, the
rationals are reserved for the exact fixtures.
"""

from functools import cache

from .doublelines import DoubleLine
from .ideals import Ideal, hilbert_data
from .linkage import LinkedTriple
from .polynomials import Polynomial, binary_coefficients, binary_form, binary_forms_have_common_zero


@cache
def _coefficient_pool(field):
    """The coefficients a random form draws from, built once per field: over
    F_p every residue, as a range (rng.choice indexes it like a list of p)."""
    if field.characteristic == 0:
        return tuple(field.normalize(k) for k in range(-3, 4))
    return range(field.characteristic)


def random_form(ring, pencil, degree, rng, allow_zero=False):
    """Random binary form of the given degree in the pencil variables."""
    pool = _coefficient_pool(ring.field)
    while True:
        f = binary_form(ring, pencil, [rng.choice(pool) for _ in range(degree + 1)])
        if allow_zero or not f.is_zero():
            return f


def _set_coefficient(form, pencil, degree, k, value):
    """Return form with its coefficient c_k (see binary_coefficients) replaced."""
    coeffs = binary_coefficients(form, pencil, degree)
    coeffs[k] = value
    return binary_form(form.ring, pencil, coeffs)


def random_coprime_pair(ring, pencil, degree, rng):
    while True:
        f = random_form(ring, pencil, degree, rng)
        g = random_form(ring, pencil, degree, rng)
        if not binary_forms_have_common_zero(f, g, pencil):
            return f, g


def random_meeting_instance(ring, case, rng):
    """A pair of double lines on {x=y=0} and {x=z=0} realizing one of the
    meeting-case buckets: 'a', 'b_hold', 'b_violate', 'one_sided'."""
    field = ring.field
    support1, support2 = (0, 1), (0, 2)
    pencil1, pencil2 = (2, 3), (1, 3)  # (z, u) and (y, u)
    while True:
        if case == "a":
            r1 = rng.choice([0, 1, 2])
            r2 = rng.choice([0, 1, 2])
            a1, b1 = random_coprime_pair(ring, pencil1, r1, rng)
            a2, b2 = random_coprime_pair(ring, pencil2, r2, rng)
            if binary_coefficients(b1, pencil1, r1)[0] == field.zero:
                continue
            if binary_coefficients(b2, pencil2, r2)[0] == field.zero:
                continue
        elif case == "one_sided":
            zero_on_first = rng.random() < 0.5
            r1 = rng.choice([1, 2]) if zero_on_first else rng.choice([0, 1, 2])
            r2 = rng.choice([0, 1, 2]) if zero_on_first else rng.choice([1, 2])
            a1, b1 = random_coprime_pair(ring, pencil1, r1, rng)
            a2, b2 = random_coprime_pair(ring, pencil2, r2, rng)
            if zero_on_first:
                b1 = _set_coefficient(b1, pencil1, r1, 0, field.zero)
                if binary_coefficients(b2, pencil2, r2)[0] == field.zero:
                    continue
            else:
                b2 = _set_coefficient(b2, pencil2, r2, 0, field.zero)
                if binary_coefficients(b1, pencil1, r1)[0] == field.zero:
                    continue
        else:
            # tangency cases: both b's vanish at the meeting point
            r1 = rng.choice([1, 2])
            r2 = rng.choice([1, 2])
            while True:
                a1 = random_form(ring, pencil1, r1, rng)
                b1 = _set_coefficient(
                    random_form(ring, pencil1, r1, rng, allow_zero=True), pencil1, r1, 0, field.zero
                )
                if not binary_forms_have_common_zero(a1, b1, pencil1):
                    break
            a2 = random_form(ring, pencil2, r2, rng)
            # tangent identity: a2(0:1) * db1(0:1) = a1(0:1) * db2(0:1)
            a1_at = binary_coefficients(a1, pencil1, r1)[0]
            a2_at = binary_coefficients(a2, pencil2, r2)[0]
            if a1_at == field.zero or a2_at == field.zero:
                continue
            db1 = binary_coefficients(b1, pencil1, r1)[1]
            target = field.div(field.mul(a2_at, db1), a1_at)
            if case == "b_violate":
                pool = _coefficient_pool(field)
                # the pool without its zero, which over F_p comes first
                nonzero = pool[1:] if field.characteristic else [c for c in pool if c != field.zero]
                target = field.add(target, rng.choice(nonzero))
            b2 = random_form(ring, pencil2, r2, rng, allow_zero=True)
            b2 = _set_coefficient(b2, pencil2, r2, 0, field.zero)
            b2 = _set_coefficient(b2, pencil2, r2, 1, target)
        try:
            L1 = DoubleLine(ring, support1, (a1, b1))
            L2 = DoubleLine(ring, support2, (a2, b2))
        except ValueError:
            continue
        return L1, L2


def random_same_support_instance(ring, rng, traceless):
    """(L1, L2, N) with L2's forms equal to L1's times N; N traceless or not."""
    field = ring.field
    pool = _coefficient_pool(field)
    support = (0, 1)
    pencil = (2, 3)
    while True:
        r = rng.choice([1, 2, 3])
        a, b = random_coprime_pair(ring, pencil, r, rng)
        while True:
            n11 = rng.choice(pool)
            n12 = rng.choice(pool)
            n21 = rng.choice(pool)
            n22 = field.neg(n11) if traceless else rng.choice(pool)
            det = field.sub(field.mul(n11, n22), field.mul(n12, n21))
            if det == field.zero:
                continue
            if not traceless and field.add(n11, n22) == field.zero:
                continue
            break
        a2 = a.scale(n11) + b.scale(n21)
        b2 = a.scale(n12) + b.scale(n22)
        if (a * b2 - a2 * b).is_zero():
            continue  # (a, b) is an eigenrow: the pair is proportional
        L1 = DoubleLine(ring, support, (a, b))
        L2 = DoubleLine(ring, support, (a2, b2))
        return L1, L2, [[n11, n12], [n21, n22]]


def random_monomial_ideal(ring, rng, max_gens=6, max_exp=3):
    gens = []
    count = rng.randint(1, max_gens)
    for _ in range(count):
        e = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        if all(x == 0 for x in e):
            continue
        gens.append(Polynomial.monomial(ring, e))
    if not gens:
        gens = [Polynomial.monomial(ring, (1,) + (0,) * (ring.nvars - 1))]
    return Ideal(ring, gens)


def random_ci_linked_triple(ring, rng, max_degree=3):
    """A random linked triple: a complete intersection base inside a random
    complete intersection, linked both ways.  None when the draw degenerates.

    The outer ideal A = (f1, f2) and the base B = (u1, u2), u = C*f with
    C = (c_ij) a matrix of forms, so B lies in A.  When both are complete
    intersections of codimension 2 the links are closed-form:
    B : A = B + (det C) and B : (B : A) = A (Peskine-Szpiro 1974; Migliore
    1998, ch. 5).  So the triple is (B, A, B + (det C)), computed with no
    colon; it is None when det C is a unit, i.e. B = A.
    """
    n = ring.nvars
    e1 = rng.randint(1, 2)
    e2 = rng.randint(1, 2)
    f1 = random_form_dense(ring, e1, rng)
    f2 = random_form_dense(ring, e2, rng)
    outer = Ideal(ring, [f1, f2])
    if hilbert_data(outer).krull_dimension != n - 2:
        return None
    base_gens = []
    rows = []
    for _ in range(2):
        d = rng.randint(max(e1, e2), max_degree)
        c1 = random_form_dense(ring, d - e1, rng, allow_zero=True)
        c2 = random_form_dense(ring, d - e2, rng, allow_zero=True)
        u = c1 * f1 + c2 * f2
        if u.is_zero():
            return None
        base_gens.append(u)
        rows.append((c1, c2))
    base = Ideal(ring, base_gens)
    if hilbert_data(base).krull_dimension != n - 2:
        return None
    (c11, c12), (c21, c22) = rows
    second = Ideal.from_groebner(Ideal(ring, [*base_gens, c11 * c22 - c12 * c21]).groebner())
    if second.is_unit():
        return None
    return LinkedTriple(base, Ideal.from_groebner(outer.groebner()), second)


def random_form_dense(ring, degree, rng, allow_zero=False):
    """Random homogeneous form of a degree in all ring variables."""
    field = ring.field
    pool = _coefficient_pool(field)
    if degree < 0:
        return Polynomial.zero(ring)
    monomials = _monomials_of_degree(ring.nvars, degree)
    while True:
        terms = {}
        for e in monomials:
            c = rng.choice(pool)
            if c != field.zero:
                terms[e] = c
        f = Polynomial(ring, terms)
        if allow_zero or not f.is_zero():
            return f


def _monomials_of_degree(n, d):
    if n == 1:
        return [(d,)]
    out = []
    for k in range(d + 1):
        for rest in _monomials_of_degree(n - 1, d - k):
            out.append((k,) + rest)
    return out
